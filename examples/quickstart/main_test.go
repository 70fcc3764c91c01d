package main

import (
	"testing"

	"repro/internal/cc"
)

// TestFig1SpecsCoverReach runs Figure 1's two computations under
// VCAbasic. Their specs are written by hand: one that leaves out a
// microprotocol its computation reaches is refused at runtime with an
// UndeclaredError, which runOnce turns into a panic.
func TestFig1SpecsCoverReach(t *testing.T) {
	f := newFig1(cc.NewVCABasic())
	if run, rep := f.runOnce(); !rep.Serializable {
		t.Fatalf("VCAbasic admitted a non-isolated run %s", run)
	}
}
