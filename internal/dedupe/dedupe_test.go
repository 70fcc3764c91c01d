package dedupe

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeqInOrder(t *testing.T) {
	d := &Seq{}
	for seq := uint64(1); seq <= 100; seq++ {
		if !d.Mark(seq) {
			t.Fatalf("seq %d reported duplicate", seq)
		}
		if d.Mark(seq) {
			t.Fatalf("seq %d not deduplicated", seq)
		}
	}
	if d.SparseLen() != 0 {
		t.Fatalf("in-order marking left %d sparse entries", d.SparseLen())
	}
}

func TestSeqOutOfOrderCompacts(t *testing.T) {
	d := &Seq{}
	for _, seq := range []uint64{3, 5, 2, 4} {
		if !d.Mark(seq) {
			t.Fatalf("seq %d reported duplicate", seq)
		}
	}
	if d.SparseLen() != 4 {
		t.Fatalf("sparse = %d before the gap fills", d.SparseLen())
	}
	if !d.Mark(1) { // fills the gap: everything compacts into low
		t.Fatal("seq 1 reported duplicate")
	}
	if d.SparseLen() != 0 {
		t.Fatalf("sparse = %d after compaction, want 0", d.SparseLen())
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if !d.Seen(seq) {
			t.Fatalf("seq %d lost by compaction", seq)
		}
	}
	if d.Seen(6) {
		t.Fatal("phantom seq 6")
	}
}

// TestSeqMatchesMapProperty: under any arrival permutation with
// duplicates, seqDedupe answers exactly like a plain map would, and ends
// fully compacted whenever the seen set is gap-free.
func TestSeqMatchesMapProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		seqs := make([]uint64, 0, 2*n)
		for i := 1; i <= n; i++ {
			seqs = append(seqs, uint64(i))
			if rng.Intn(3) == 0 {
				seqs = append(seqs, uint64(i)) // duplicate
			}
		}
		rng.Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })

		d := &Seq{}
		ref := map[uint64]bool{}
		for _, s := range seqs {
			want := !ref[s]
			ref[s] = true
			if got := d.Mark(s); got != want {
				t.Errorf("seed %d: mark(%d) = %v, want %v", seed, s, got, want)
			}
		}
		for s := uint64(1); s <= uint64(n)+2; s++ {
			if d.Seen(s) != ref[s] {
				t.Errorf("seed %d: seen(%d) = %v, want %v", seed, s, d.Seen(s), ref[s])
			}
		}
		// All of 1..n marked ⇒ fully compacted.
		if d.SparseLen() != 0 {
			t.Errorf("seed %d: sparse = %d after gap-free history", seed, d.SparseLen())
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqGapStaysSparse(t *testing.T) {
	d := &Seq{}
	d.Mark(1)
	d.Mark(3) // 2 is missing (lost message): 3 must stay sparse
	if d.SparseLen() != 1 {
		t.Fatalf("sparse = %d", d.SparseLen())
	}
	if d.Seen(2) {
		t.Fatal("unseen gap reported seen")
	}
}

// TestSeqAdvance: raising the high-water mark drops the sparse entries it
// covers and compacts the ones it makes contiguous; a lower mark is a
// no-op.
func TestSeqAdvance(t *testing.T) {
	d := &Seq{}
	for _, seq := range []uint64{2, 5, 7, 8} {
		d.Mark(seq)
	}
	d.Advance(6) // covers 2 and 5; 7 and 8 are now contiguous
	if d.Low() != 8 || d.SparseLen() != 0 {
		t.Fatalf("after Advance(6): low %d, sparse %d; want 8 and 0", d.Low(), d.SparseLen())
	}
	d.Advance(3)
	if d.Low() != 8 {
		t.Fatalf("Advance below the mark moved it to %d", d.Low())
	}
	if d.Mark(4) || !d.Mark(9) || d.Low() != 9 {
		t.Fatalf("after advancing: low %d", d.Low())
	}
}
