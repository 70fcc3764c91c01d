package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestErrorStrings(t *testing.T) {
	cases := []struct {
		err  error
		want []string
	}{
		{&core.UnboundError{Event: "ev"}, []string{"no handler", `"ev"`}},
		{&core.AmbiguousError{Event: "ev", N: 3}, []string{"3 handlers", "TriggerAll"}},
		{&core.UndeclaredError{MP: "relcomm", Handler: "send"}, []string{"relcomm.send", "not declared"}},
		{&core.UndeclaredError{MP: "relcomm", Handler: "send", Declared: []string{"net", "ret"}},
			[]string{"relcomm.send", "not declared", "relcomm is missing from [net ret]"}},
		{&core.BoundExhaustedError{MP: "relcomm", Bound: 4}, []string{"bound 4", "relcomm", "exhausted"}},
		{&core.NoRouteError{From: "P.hp", To: "Q.hq"}, []string{"P.hp", "Q.hq", "no route"}},
		{&core.NoRouteError{To: "Q.hq"}, []string{"<root>", "Q.hq"}},
		{&core.EmitsError{Handler: "relcast.recv", Event: "SendOut"}, []string{"relcast.recv", `"SendOut"`, "Emits does not declare"}},
		{&core.ReadOnlyViolationError{MP: "data", Handler: "poke"}, []string{"read-only", "data.poke"}},
		{&core.SpecError{Controller: "vca-bound", Reason: "no bounds"}, []string{"vca-bound", "no bounds"}},
	}
	for _, tc := range cases {
		msg := tc.err.Error()
		for _, want := range tc.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%T: %q missing %q", tc.err, msg, want)
			}
		}
	}
}

func TestBoundReturnsCopy(t *testing.T) {
	s := newNoneStack(t)
	p := core.NewMicroprotocol("p")
	h := p.AddHandler("h", nopHandler)
	s.Register(p)
	et := core.NewEventType("e")
	s.Bind(et, h)
	got := s.Bound(et)
	got[0] = nil // must not corrupt the stack's own binding slice
	if s.Bound(et)[0] != h {
		t.Fatal("Bound leaked internal slice")
	}
}

func TestStackAccessors(t *testing.T) {
	ctrl := struct{ core.Controller }{}
	_ = ctrl
	s := newNoneStack(t)
	if s.Controller() == nil {
		t.Fatal("controller accessor")
	}
}
