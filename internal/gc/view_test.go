package gc

import (
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestViewBasics(t *testing.T) {
	v := NewView(2, 0, 1)
	if v.Size() != 3 {
		t.Fatalf("size = %d", v.Size())
	}
	if got := v.Members(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("members = %v (must be sorted)", got)
	}
	for _, id := range []simnet.NodeID{0, 1, 2} {
		if !v.Contains(id) {
			t.Fatalf("missing %d", id)
		}
	}
	if v.Contains(3) {
		t.Fatal("phantom member")
	}
	if v.String() != "{0,1,2}" {
		t.Fatalf("string = %q", v.String())
	}
}

func TestViewAddRemoveImmutable(t *testing.T) {
	v := NewView(0, 1)
	v2 := v.Add(2)
	if v.Contains(2) {
		t.Fatal("Add mutated the receiver")
	}
	if !v2.Contains(2) || v2.Size() != 3 {
		t.Fatalf("v2 = %v", v2)
	}
	if v.Add(1) != v {
		t.Fatal("adding an existing member must be a no-op")
	}
	v3 := v2.Remove(0)
	if v2.Contains(0) == false {
		t.Fatal("Remove mutated the receiver")
	}
	if v3.Contains(0) || v3.Size() != 2 {
		t.Fatalf("v3 = %v", v3)
	}
	if v3.Remove(0) != v3 {
		t.Fatal("removing an absent member must be a no-op")
	}
}

func TestViewApply(t *testing.T) {
	v := NewView(0)
	v = v.apply('+', 5)
	if !v.Contains(5) {
		t.Fatal("+ failed")
	}
	v = v.apply('-', 5)
	if v.Contains(5) {
		t.Fatal("- failed")
	}
}

func TestViewQuorum(t *testing.T) {
	for _, tc := range []struct{ n, q int }{{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {7, 4}} {
		ids := make([]simnet.NodeID, tc.n)
		for i := range ids {
			ids[i] = simnet.NodeID(i)
		}
		if got := NewView(ids...).quorum(); got != tc.q {
			t.Fatalf("quorum(%d) = %d, want %d", tc.n, got, tc.q)
		}
	}
}

func TestViewCoordinatorRotates(t *testing.T) {
	v := NewView(0, 1, 2)
	if v.coordinator(0, 0) != 0 || v.coordinator(0, 1) != 1 || v.coordinator(0, 2) != 2 || v.coordinator(0, 3) != 0 {
		t.Fatal("round rotation wrong")
	}
	if v.coordinator(1, 0) != 1 {
		t.Fatal("instance rotation wrong")
	}
	// Rotation respects membership, not raw IDs.
	v2 := NewView(3, 7)
	if v2.coordinator(0, 0) != 3 || v2.coordinator(0, 1) != 7 {
		t.Fatal("sparse membership rotation wrong")
	}
}

func TestViewContainsProperty(t *testing.T) {
	prop := func(ids []uint8, probe uint8) bool {
		ns := make([]simnet.NodeID, len(ids))
		want := false
		for i, id := range ids {
			ns[i] = simnet.NodeID(id)
			if id == probe {
				want = true
			}
		}
		return NewView(ns...).Contains(simnet.NodeID(probe)) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestViewProtoThreadsThroughMembership pins the proto field's algebra:
// it survives adds and removes, '^' never downgrades, and it renders in
// String once set.
func TestViewProtoThreadsThroughMembership(t *testing.T) {
	v := NewView(0, 1)
	if v.Proto() != 0 {
		t.Fatalf("fresh view proto = %d", v.Proto())
	}
	v = v.apply('^', 2)
	if v.Proto() != 2 {
		t.Fatalf("proto after upgrade = %d, want 2", v.Proto())
	}
	v = v.Add(3).Remove(1)
	if v.Proto() != 2 {
		t.Fatalf("proto lost across membership ops: %d", v.Proto())
	}
	if v = v.apply('^', 1); v.Proto() != 2 {
		t.Fatalf("stale upgrade downgraded proto to %d", v.Proto())
	}
	if got, want := v.String(), "{0,3}@v2"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
