package cc_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/cctest"
	"repro/internal/core"
)

// TestConformance runs the shared controller-conformance battery
// (package cctest) against every isolating controller. The deliberately
// unsafe None baseline is excluded: it exists to violate the property
// the battery checks.
func TestConformance(t *testing.T) {
	cases := []struct {
		name string
		cfg  cctest.Config
	}{
		{"serial", cctest.Config{
			New:            func() core.Controller { return cc.NewSerial() },
			SkipUndeclared: true, // Appia model: no spec validation
		}},
		{"vca-basic", cctest.Config{
			New: func() core.Controller { return cc.NewVCABasic() },
		}},
		{"ref-vca-basic", cctest.Config{
			New: func() core.Controller { return cc.NewRefVCABasic() },
		}},
		{"vca-bound", cctest.Config{
			New: func() core.Controller { return cc.NewVCABound() },
		}},
		{"vca-route", cctest.Config{
			New: func() core.Controller { return cc.NewVCARoute() },
		}},
		{"vca-rw", cctest.Config{
			New: func() core.Controller { return cc.NewVCARW() },
		}},
		{"wait-die", cctest.Config{
			New:      func() core.Controller { return cc.NewWaitDie() },
			Snapshot: true, // rollback scheduling needs snapshotters
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { cctest.Run(t, tc.cfg) })
	}
}
