package bench

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctp"
	"repro/internal/simnet"
	"repro/internal/transport/faultnet"
)

// Transport is the E9 fixture: one ctp connection under a chosen layer
// composition and network adversity, measuring goodput and the repair
// machinery at work. It is the evaluation of the repository's second
// protocol system — the configurable transport in the Cactus/CTP
// tradition the paper builds on.
type Transport struct {
	net      *faultnet.Net
	a, b     *ctp.Endpoint
	reliable bool
	got      atomic.Int64
}

// TransportShape selects an E9 composition/adversity point.
type TransportShape struct {
	Name                           string
	Reliable, Ordered, Checksummed bool
	Loss, Corrupt                  float64
}

// TransportShapes returns the E9 grid.
func TransportShapes() []TransportShape {
	return []TransportShape{
		{Name: "raw datagram, clean"},
		{Name: "checksum, clean", Checksummed: true},
		{Name: "reliable, clean", Reliable: true},
		{Name: "rel+ord, clean", Reliable: true, Ordered: true},
		{Name: "rel+ord+sum, clean", Reliable: true, Ordered: true, Checksummed: true},
		{Name: "rel+ord+sum, lossy 20%", Reliable: true, Ordered: true, Checksummed: true, Loss: 0.2},
		{Name: "rel+ord+sum, corrupt 20%", Reliable: true, Ordered: true, Checksummed: true, Corrupt: 0.2},
	}
}

// NewTransport builds the fixture.
func NewTransport(v Variant, shape TransportShape, seed int64) (*Transport, error) {
	tr := &Transport{reliable: shape.Reliable}
	tr.net = faultnet.New(faultnet.Config{
		Inner: simnet.New(simnet.Config{Nodes: 2}),
		Seed:  seed,
		Rates: faultnet.Rates{
			Drop: shape.Loss, Corrupt: shape.Corrupt,
			Delay: 1, DelayMin: 20 * time.Microsecond, DelayMax: 200 * time.Microsecond,
		},
	})
	mk := func(id, peer simnet.NodeID, deliver func([]byte)) (*ctp.Endpoint, error) {
		return ctp.NewEndpoint(ctp.Config{
			Net: tr.net, ID: id, Peer: peer,
			Reliable: shape.Reliable, Ordered: shape.Ordered, Checksummed: shape.Checksummed,
			RTO:        10 * time.Millisecond,
			Controller: v.New(),
			Deliver:    deliver,
		})
	}
	var err error
	if tr.a, err = mk(0, 1, nil); err != nil {
		return nil, err
	}
	if tr.b, err = mk(1, 0, func([]byte) { tr.got.Add(1) }); err != nil {
		return nil, err
	}
	tr.a.Start()
	tr.b.Start()
	return tr, nil
}

// Run sends msgs messages of size bytes each and waits for delivery
// (reliable shapes) or quiescence (unreliable: no delivery for 150ms),
// returning the time from the first send to the last delivery and the
// delivered count.
func (tr *Transport) Run(msgs, size int) (time.Duration, int64, error) {
	payload := make([]byte, size)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	var sendErr error
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := tr.a.Send(payload); err != nil {
				sendErr = err
				return
			}
		}
	}()
	wg.Wait()
	if sendErr != nil {
		return 0, 0, sendErr
	}
	deadline := time.Now().Add(30 * time.Second)
	last, lastAt := tr.got.Load(), time.Now()
	for last < int64(msgs) {
		time.Sleep(200 * time.Microsecond)
		now := time.Now()
		if got := tr.got.Load(); got != last {
			last, lastAt = got, now
			continue
		}
		if now.After(deadline) || !tr.reliable && now.Sub(lastAt) > 150*time.Millisecond {
			break // no repair machinery: what's lost stays lost
		}
	}
	return lastAt.Sub(start), last, nil
}

// Stop tears the fixture down and returns endpoint errors.
func (tr *Transport) Stop() []error {
	tr.a.Stop()
	tr.b.Stop()
	tr.net.Close()
	return append(tr.a.Errs(), tr.b.Errs()...)
}

// Retransmits reports sender-side retransmissions.
func (tr *Transport) Retransmits() uint64 { return tr.a.Retransmits() }

// BadFrames reports checksum rejections at either end.
func (tr *Transport) BadFrames() uint64 { return tr.a.BadFrames() + tr.b.BadFrames() }

// E9Transport measures the configurable transport across the composition
// grid under VCAbasic. A clean row sends cleanMsgs messages, a lossy or
// corrupt row msgs: a clean link moves a message in tens of
// microseconds, so a clean run needs many more of them to last long
// enough to measure. Each row runs `runs` times on the same fault seed:
// msgs/s is the median with the min–max over the runs, delivered the
// worst run, time, retransmits and bad frames the median run's.
func E9Transport(msgs, cleanMsgs, size, runs int) *Table {
	t := &Table{
		ID: "E9",
		Title: fmt.Sprintf("configurable transport (ctp): %d msgs per clean row, %d per faulty row, × %dB under vca-basic, median of %d runs",
			cleanMsgs, msgs, size, runs),
		Header: []string{"composition / link", "delivered", "time", "msgs/s (min–max)", "retransmits", "bad frames"},
	}
	v, _ := VariantByName("vca-basic")
	type run struct {
		elapsed   time.Duration
		got       int64
		retr, bad uint64
		rate      float64
	}
	for _, shape := range TransportShapes() {
		n := msgs
		if shape.Loss == 0 && shape.Corrupt == 0 {
			n = cleanMsgs
		}
		rs := make([]run, runs)
		worst := int64(n)
		for i := range rs {
			tr, err := NewTransport(v, shape, 31)
			if err != nil {
				panic(fmt.Sprintf("E9 %s: %v", shape.Name, err))
			}
			elapsed, got, err := tr.Run(n, size)
			retr, bad := tr.Retransmits(), tr.BadFrames()
			if errs := tr.Stop(); len(errs) > 0 {
				panic(fmt.Sprintf("E9 %s: %v", shape.Name, errs[0]))
			}
			if err != nil {
				panic(fmt.Sprintf("E9 %s: %v", shape.Name, err))
			}
			rs[i] = run{elapsed, got, retr, bad, float64(got) / elapsed.Seconds()}
			worst = min(worst, got)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].rate < rs[j].rate })
		med := rs[len(rs)/2]
		t.AddRow(shape.Name,
			fmt.Sprintf("%d/%d", worst, n),
			med.elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f (%.0f–%.0f)", med.rate, rs[0].rate, rs[len(rs)-1].rate),
			fmt.Sprint(med.retr), fmt.Sprint(med.bad))
	}
	t.Note("expected: each layer costs a little goodput on a clean link; under loss or corruption")
	t.Note("the full stack delivers everything via retransmission/checksum-drop while raw datagrams lose;")
	t.Note("the protocol-composition flexibility is the Cactus/CTP heritage the paper builds on")
	return t
}
