// Package dedupe provides bounded-memory duplicate suppression for
// per-source sequence numbers: a high-water mark (every seq ≤ Low was
// seen) plus a sparse set for out-of-order arrivals above it. Because
// protocol sequence numbers are per-source counters starting at 1, the
// sparse set only ever holds reordering/loss gaps instead of the whole
// history — the "finite buffers" the paper's §3 alludes to, for dedupe
// state.
package dedupe

// Seq tracks seen sequence numbers from one source. The zero value is
// ready to use.
type Seq struct {
	low    uint64
	sparse map[uint64]bool
}

// Mark records seq as seen and reports whether it was new.
func (d *Seq) Mark(seq uint64) bool {
	if seq <= d.low || d.sparse[seq] {
		return false
	}
	if seq == d.low+1 {
		d.low = seq
		for d.sparse[d.low+1] {
			d.low++
			delete(d.sparse, d.low)
		}
		return true
	}
	if d.sparse == nil {
		d.sparse = make(map[uint64]bool)
	}
	d.sparse[seq] = true
	return true
}

// Advance records every seq ≤ to as seen — the source vouches that it
// will never send them (again) — dropping the sparse entries at or below
// it and compacting whatever then became contiguous.
func (d *Seq) Advance(to uint64) {
	if to <= d.low {
		return
	}
	for seq := range d.sparse {
		if seq <= to {
			delete(d.sparse, seq)
		}
	}
	d.low = to
	for d.sparse[d.low+1] {
		d.low++
		delete(d.sparse, d.low)
	}
}

// Seen reports whether seq was marked.
func (d *Seq) Seen(seq uint64) bool {
	return seq <= d.low || d.sparse[seq]
}

// Low reports the high-water mark: every seq ≤ Low was seen.
func (d *Seq) Low() uint64 { return d.low }

// SparseLen reports the number of out-of-order entries awaiting
// compaction.
func (d *Seq) SparseLen() int { return len(d.sparse) }
