package cc_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
)

// TestUndeclaredNamesSpec checks that every spec-enforcing controller's
// rejection names both the offending microprotocol and the computation's
// declared set, so the error alone locates the spec to fix.
func TestUndeclaredNamesSpec(t *testing.T) {
	variants := []struct {
		name string
		mk   func() core.Controller
		spec func(p *core.Microprotocol) *core.Spec
	}{
		{"vca-basic", func() core.Controller { return cc.NewVCABasic() },
			func(p *core.Microprotocol) *core.Spec { return core.Access(p) }},
		{"vca-bound", func() core.Controller { return cc.NewVCABound() },
			func(p *core.Microprotocol) *core.Spec {
				return core.AccessBound(map[*core.Microprotocol]int{p: 1})
			}},
		{"vca-rw", func() core.Controller { return cc.NewVCARW() },
			func(p *core.Microprotocol) *core.Spec { return core.Access(p) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			s := core.NewStack(v.mk())
			p := core.NewMicroprotocol("p")
			q := core.NewMicroprotocol("q")
			hq := q.AddHandler("h", nop)
			s.Register(p, q)
			et := core.NewEventType("e")
			s.Bind(et, hq)
			err := s.External(v.spec(p), et, nil)
			var ue *core.UndeclaredError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want UndeclaredError", err)
			}
			if len(ue.Declared) != 1 || ue.Declared[0] != "p" {
				t.Errorf("Declared = %v, want [p]", ue.Declared)
			}
			if msg := ue.Error(); !strings.Contains(msg, "q is missing from [p]") {
				t.Errorf("message %q does not name the declared spec", msg)
			}
		})
	}
}
