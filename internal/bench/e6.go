package bench

import (
	"fmt"
	"time"

	"repro/internal/gc"
	"repro/internal/simnet"
)

// E6Result is one run of the §3 view-change race.
type E6Result struct {
	Delivered    bool
	DroppedStale uint64
}

// RunE6Race orchestrates the paper's §3 Problem once under a controller
// variant: relay site B processes a reliable broadcast from a crashed
// origin while installing the view that adds site C, parked — by a test
// hook — in the window where RelCast has the new view and RelComm still
// has the old one. Returns whether C eventually received the message.
func RunE6Race(v Variant) E6Result {
	net := simnet.New(simnet.Config{Nodes: 3})
	defer net.Close()

	inWindow := make(chan struct{}, 1)
	release := make(chan struct{})
	delivered := make(chan struct{}, 4)

	c := gc.NewSite(gc.Config{
		Net: net, ID: 2, InitialView: gc.NewView(0, 1, 2), FDInterval: -1,
		RDeliver: func(simnet.NodeID, []byte) {
			select {
			case delivered <- struct{}{}:
			default:
			}
		},
	})
	c.Start()
	defer c.Stop()

	b := gc.NewSite(gc.Config{
		Net: net, ID: 1, InitialView: gc.NewView(0, 1), FDInterval: -1,
		Controller: v.New(),
		Passive:    true, // only the two orchestrated computations run on B
		AfterRelCastView: func() {
			select {
			case inWindow <- struct{}{}:
			default:
			}
			<-release
		},
	})
	b.Start()
	defer b.Stop()

	m := gc.BuildCastDatagram(0, 1, gc.MsgID{Origin: 0, Seq: 1}, []byte("m"))
	net.Crash(0)

	viewDone := make(chan error, 1)
	go func() { viewDone <- b.InjectViewChange('+', 2) }()
	<-inWindow

	mDone := make(chan error, 1)
	go func() { mDone <- b.InjectDatagram(m) }()
	if v.Name == "none" {
		<-mDone // interleaves inside the window
	} else {
		time.Sleep(20 * time.Millisecond) // parks on the controller
	}
	close(release)
	<-viewDone
	if v.Name != "none" {
		<-mDone
	}

	select {
	case <-delivered:
		return E6Result{Delivered: true, DroppedStale: b.DroppedStale()}
	case <-time.After(300 * time.Millisecond):
		return E6Result{Delivered: false, DroppedStale: b.DroppedStale()}
	}
}

// E6ViewRace runs the race `trials` times per controller and reports
// message losses — the paper's §3 Problem and Solution by Isolation.
func E6ViewRace(trials int) *Table {
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("§3 view-change race (%d adversarial trials per controller)", trials),
		Header: []string{"controller", "messages lost", "stale-view drops at RelComm"},
	}
	for _, v := range PaperVariants() {
		lost, drops := 0, uint64(0)
		for i := 0; i < trials; i++ {
			res := RunE6Race(v)
			if !res.Delivered {
				lost++
			}
			drops += res.DroppedStale
		}
		t.AddRow(v.Name, fmt.Sprintf("%d/%d", lost, trials), fmt.Sprint(drops))
	}
	t.Note("expected: None loses the message every time; every isolating controller delivers it —")
	t.Note("with no change to the protocol code (paper §3 'Solution by Isolation')")
	return t
}
