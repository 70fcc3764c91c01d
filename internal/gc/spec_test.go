package gc

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
)

// specMPs runs one empty computation under the entry's spec and returns
// the microprotocol names its pinned epoch declares, sorted.
func specMPs(t *testing.T, s *Site, e entry) []string {
	t.Helper()
	var names []string
	if err := s.stack.Isolated(s.specs[e], func(ctx *core.Context) error {
		for _, mp := range ctx.Computation().Spec().MPs() {
			names = append(names, mp.Name())
		}
		return nil
	}); err != nil {
		t.Fatalf("entry %d: %v", e, err)
	}
	slices.Sort(names)
	return names
}

// TestEntrySpecs pins what each entry point's spec declares at epoch 1,
// as derived from the handlers' Emits, and that the data path's spec
// follows a live upgrade to the new app.
func TestEntrySpecs(t *testing.T) {
	s := NewSite(Config{Net: simnet.New(simnet.Config{Nodes: 1}), ID: 0, InitialView: NewView(0), Passive: true})
	// Every microprotocol the site registers: a datagram may reach each.
	all := []string{"abcast", "app", "consensus", "fd", "membership", "netout", "relcast", "relcomm"}
	for _, tc := range []struct {
		e    entry
		name string
		want []string
	}{
		{entFromNet, "FromNet", all},
		{entBeat, "beat", []string{"fd"}},
		{entFDTick, "FD tick", []string{"consensus", "fd", "netout", "relcomm"}},
		{entRetrans, "retransmit", []string{"netout", "relcomm"}},
		{entABcast, "ABcast", []string{"abcast", "netout", "relcast", "relcomm"}},
		{entRBcast, "RBcast", []string{"netout", "relcast", "relcomm"}},
		{entJoinLeave, "join/leave", []string{"abcast", "membership", "netout", "relcast", "relcomm"}},
		{entInject, "inject", all},
	} {
		if got := specMPs(t, s, tc.e); !slices.Equal(got, tc.want) {
			t.Errorf("%s spec M = %v, want %v", tc.name, got, tc.want)
		}
	}

	if err := s.ProposeUpgrade(2); err != nil {
		t.Fatal(err)
	}
	if v := s.AppVersion(); v != 2 {
		t.Fatalf("app version %d after the upgrade, want 2", v)
	}
	got := specMPs(t, s, entFromNet)
	if !slices.Contains(got, "app@v2") || slices.Contains(got, "app") {
		t.Fatalf("FromNet spec after the upgrade = %v, want app@v2 in place of app", got)
	}
}
