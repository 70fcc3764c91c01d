package gc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/transport"
)

// View is a group view: the current set of sites considered non-faulty
// (paper §3), plus the protocol version the group runs. Views are
// immutable; operations return new views.
type View struct {
	members []transport.NodeID // sorted
	proto   uint16             // 0: baseline (no upgrade proposed yet)
}

// NewView builds a view from the given members.
func NewView(members ...transport.NodeID) *View {
	v := &View{members: append([]transport.NodeID(nil), members...)}
	sort.Slice(v.members, func(i, j int) bool { return v.members[i] < v.members[j] })
	return v
}

// Proto reports the group's protocol version: 0 until an upgrade is
// delivered, then the highest version any '^' operation carried.
func (v *View) Proto() uint16 { return v.proto }

// withProto returns a view running the given protocol version. Like the
// membership operations it is delivered through ABcast, so every member
// adopts the version at the same total-order point.
func (v *View) withProto(p uint16) *View {
	if v.proto == p {
		return v
	}
	return &View{members: v.members, proto: p}
}

// Members returns the members in ascending order. The slice must not be
// modified.
func (v *View) Members() []transport.NodeID { return v.members }

// Size reports the number of members.
func (v *View) Size() int { return len(v.members) }

// Contains reports membership of the site.
func (v *View) Contains(id transport.NodeID) bool {
	i := sort.Search(len(v.members), func(i int) bool { return v.members[i] >= id })
	return i < len(v.members) && v.members[i] == id
}

// Add returns a view with the site added (no-op if present).
func (v *View) Add(id transport.NodeID) *View {
	if v.Contains(id) {
		return v
	}
	out := NewView(append(append([]transport.NodeID(nil), v.members...), id)...)
	out.proto = v.proto
	return out
}

// Remove returns a view with the site removed (no-op if absent).
func (v *View) Remove(id transport.NodeID) *View {
	if !v.Contains(id) {
		return v
	}
	out := make([]transport.NodeID, 0, len(v.members)-1)
	for _, m := range v.members {
		if m != id {
			out = append(out, m)
		}
	}
	return &View{members: out, proto: v.proto}
}

// apply performs the paper's "view op site" with op ∈ {+,-}, extended
// with '^': a protocol upgrade, whose operand is the version number
// rather than a site. Upgrades never downgrade — a stale '^' reordered
// behind a newer one is a no-op.
func (v *View) apply(op byte, id transport.NodeID) *View {
	switch op {
	case '-':
		return v.Remove(id)
	case '^':
		if p := uint16(id); p > v.proto {
			return v.withProto(p)
		}
		return v
	}
	return v.Add(id)
}

// quorum reports the majority size of the view.
func (v *View) quorum() int { return len(v.members)/2 + 1 }

// coordinator returns the rotating coordinator for a consensus instance
// and round (paper: the distributed consensus microprotocol).
func (v *View) coordinator(inst uint64, round uint32) transport.NodeID {
	n := uint64(len(v.members))
	return v.members[(inst+uint64(round))%n]
}

// String implements fmt.Stringer.
func (v *View) String() string {
	parts := make([]string, len(v.members))
	for i, m := range v.members {
		parts[i] = fmt.Sprintf("%d", m)
	}
	out := "{" + strings.Join(parts, ",") + "}"
	if v.proto != 0 {
		out += fmt.Sprintf("@v%d", v.proto)
	}
	return out
}
