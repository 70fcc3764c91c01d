package cctest

import (
	"slices"
	"testing"
)

// TestSeedList: CCTEST_SEED replays exactly one seed, a malformed value
// is an error instead of a silent run of the default battery, and unset
// it yields 0..n-1.
func TestSeedList(t *testing.T) {
	t.Setenv("CCTEST_SEED", "7")
	if got, err := seedList(12); err != nil || !slices.Equal(got, []int64{7}) {
		t.Fatalf("CCTEST_SEED=7: got %v, %v; want [7]", got, err)
	}
	t.Setenv("CCTEST_SEED", "abc")
	if got, err := seedList(12); err == nil {
		t.Fatalf("CCTEST_SEED=abc: got %v, want an error", got)
	}
	t.Setenv("CCTEST_SEED", "")
	if got, err := seedList(3); err != nil || !slices.Equal(got, []int64{0, 1, 2}) {
		t.Fatalf("CCTEST_SEED unset: got %v, %v; want [0 1 2]", got, err)
	}
}
