package gc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// App is the application-facing microprotocol: it turns deliveries and
// view changes into upcalls. Upcalls run inside computations and must not
// call Site methods synchronously (spawn a goroutine for follow-up
// broadcasts — a caused computation is a new external event, paper §2).
//
// App instances are versioned: a '^' view operation delivered through
// the total order makes the site replace its App with a successor built
// for the new protocol version (Site.maybeUpgrade), swapping the stack's
// configuration epoch while computations keep running.
type App struct {
	mp  *core.Microprotocol
	ver uint16

	deliver  func(from transport.NodeID, data []byte)
	rdeliver func(from transport.NodeID, data []byte)
	onView   func(v *View)
	upgrade  func(proto uint16)

	hDeliver, hRDeliver, hViewChange *core.Handler
}

// appName names the App microprotocol for a protocol version; versions
// above the baseline carry the version so epoch histories and vet output
// show which incarnation a handler belongs to.
func appName(ver uint16) string {
	if ver <= 1 {
		return "app"
	}
	return fmt.Sprintf("app@v%d", ver)
}

func newApp(ver uint16, deliver, rdeliver func(from transport.NodeID, data []byte), onView func(*View), upgrade func(uint16)) *App {
	a := &App{
		mp:       core.NewMicroprotocol(appName(ver)),
		ver:      ver,
		deliver:  deliver,
		rdeliver: rdeliver,
		onView:   onView,
		upgrade:  upgrade,
	}
	a.hDeliver = a.mp.AddHandler("deliver", func(_ *core.Context, msg core.Message) error {
		if m := msg.(castMsg); a.deliver != nil {
			a.deliver(m.ID.Origin, m.Data)
		}
		return nil
	}).Emits()
	a.hRDeliver = a.mp.AddHandler("rdeliver", func(_ *core.Context, msg core.Message) error {
		if m := msg.(castMsg); a.rdeliver != nil {
			a.rdeliver(m.ID.Origin, m.Data)
		}
		return nil
	}).Emits()
	a.hViewChange = a.mp.AddHandler("viewChange", func(_ *core.Context, msg core.Message) error {
		v := msg.(*View)
		if a.onView != nil {
			a.onView(v)
		}
		// A delivered protocol bump upgrades this very microprotocol:
		// the hook runs inside the deliverView computation, so every
		// member swaps at the same total-order point.
		if a.upgrade != nil && v.Proto() > a.ver {
			a.upgrade(v.Proto())
		}
		return nil
	}).Emits()
	return a
}
