// Package collective implements the collective-communication algorithms
// MCCS executes: ring AllReduce, AllGather, ReduceScatter, Broadcast and
// Reduce, expressed as per-rank step schedules over data regions.
//
// The package is deliberately independent of the transport and GPU layers:
// a schedule says *what* moves where and whether it is reduced; the proxy
// and transport engines decide *how* (which NIC, which network route, what
// timing). The same schedules are executed on plain in-memory buffers by
// the verification executor in verify.go, which is how the test suite
// proves that, e.g., AllReduce really computes the global sum for every
// ring ordering.
package collective

import (
	"fmt"
	"time"
)

// Op enumerates collective operations.
type Op int

const (
	AllReduce Op = iota
	AllGather
	ReduceScatter
	Broadcast
	Reduce
)

var opNames = [...]string{"AllReduce", "AllGather", "ReduceScatter", "Broadcast", "Reduce"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Ring is an ordering of the n ranks of a communicator into a cycle. MCCS's
// provider-side policy picks the order; NCCL uses rank order.
type Ring struct {
	order []int // order[pos] = rank
	pos   []int // pos[rank] = position
}

// NewRing builds a ring from a permutation of [0, n). order[i] is the rank
// at ring position i; data flows from position i to position i+1 (mod n).
func NewRing(order []int) (*Ring, error) {
	n := len(order)
	if n == 0 {
		return nil, fmt.Errorf("collective: empty ring")
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for p, r := range order {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("collective: rank %d out of range [0,%d)", r, n)
		}
		if pos[r] != -1 {
			return nil, fmt.Errorf("collective: rank %d appears twice in ring", r)
		}
		pos[r] = p
	}
	return &Ring{order: append([]int(nil), order...), pos: pos}, nil
}

// IdentityRing returns the rank-order ring 0,1,...,n-1 (what NCCL builds
// from user-assigned ranks).
func IdentityRing(n int) *Ring {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r, _ := NewRing(order)
	return r
}

// Size returns the number of ranks.
func (r *Ring) Size() int { return len(r.order) }

// Order returns a copy of the position-to-rank mapping.
func (r *Ring) Order() []int { return append([]int(nil), r.order...) }

// RankAt returns the rank at ring position p.
func (r *Ring) RankAt(p int) int { return r.order[p] }

// PosOf returns the ring position of a rank.
func (r *Ring) PosOf(rank int) int { return r.pos[rank] }

// Next returns the rank that follows rank in the ring (its send peer).
func (r *Ring) Next(rank int) int {
	return r.order[(r.pos[rank]+1)%len(r.order)]
}

// Prev returns the rank that precedes rank in the ring (its receive peer).
func (r *Ring) Prev(rank int) int {
	n := len(r.order)
	return r.order[(r.pos[rank]+n-1)%n]
}

// Reversed returns the ring traversed in the opposite direction — the
// Fig. 7 reconfiguration that dodges a directional background flow.
func (r *Ring) Reversed() *Ring {
	n := len(r.order)
	rev := make([]int, n)
	for i, rank := range r.order {
		rev[n-1-i] = rank
	}
	nr, _ := NewRing(rev)
	return nr
}

// RotatedTo returns the ring rotated so that root sits at position 0,
// preserving cyclic order. Rooted collectives (Broadcast, Reduce) use it.
func (r *Ring) RotatedTo(root int) *Ring {
	n := len(r.order)
	rp := r.pos[root]
	rot := make([]int, n)
	for i := 0; i < n; i++ {
		rot[i] = r.order[(rp+i)%n]
	}
	nr, _ := NewRing(rot)
	return nr
}

// StepIO describes one ring step for one rank. Regions index the n data
// regions of the operation (see Regions); -1 means no transfer on that side
// this step.
type StepIO struct {
	// SendRegion is sent to Next(rank); -1 if the rank does not send.
	SendRegion int
	// RecvRegion arrives from Prev(rank); -1 if the rank does not
	// receive.
	RecvRegion int
	// RecvReduce says the received region is summed into the local data
	// (true) rather than copied over it (false).
	RecvReduce bool
}

// Steps returns the per-rank ring schedule for op. For rooted ops
// (Broadcast, Reduce) pass the root rank; it is ignored otherwise.
//
// Region conventions (regions index contiguous buffer spans, see Regions):
//   - AllReduce / ReduceScatter: region identity is the ring position it
//     accumulates at; every rank both sends and receives every step.
//   - AllGather: region identity is the *rank* that contributed it, since
//     the output layout is rank-indexed.
//   - Broadcast / Reduce: a single region (the whole buffer) hops along the
//     ring; rank p transfers only on its step, so the schedule is a chain.
func Steps(op Op, ring *Ring, rank, root int) []StepIO {
	n := ring.Size()
	p := ring.PosOf(rank)
	mod := func(x int) int { return ((x % n) + n) % n }
	switch op {
	case AllReduce:
		// n-1 reduce-scatter steps then n-1 allgather steps.
		steps := make([]StepIO, 0, 2*(n-1))
		for s := 0; s < n-1; s++ {
			steps = append(steps, StepIO{
				SendRegion: mod(p - s),
				RecvRegion: mod(p - s - 1),
				RecvReduce: true,
			})
		}
		for s := 0; s < n-1; s++ {
			steps = append(steps, StepIO{
				SendRegion: mod(p - s + 1),
				RecvRegion: mod(p - s),
				RecvReduce: false,
			})
		}
		return steps
	case ReduceScatter:
		// Same flow pattern as the reduce-scatter phase of AllReduce, but
		// regions are labeled by the rank that ends up owning them (the
		// public output contract is rank-indexed): the region finishing
		// at position q is region RankAt(q).
		steps := make([]StepIO, 0, n-1)
		for s := 0; s < n-1; s++ {
			steps = append(steps, StepIO{
				SendRegion: ring.RankAt(mod(p - s - 1)),
				RecvRegion: ring.RankAt(mod(p - s - 2)),
				RecvReduce: true,
			})
		}
		return steps
	case AllGather:
		steps := make([]StepIO, 0, n-1)
		for s := 0; s < n-1; s++ {
			steps = append(steps, StepIO{
				SendRegion: ring.RankAt(mod(p - s)),
				RecvRegion: ring.RankAt(mod(p - s - 1)),
				RecvReduce: false,
			})
		}
		return steps
	case Broadcast:
		rr := ring.RotatedTo(root)
		q := rr.PosOf(rank)
		steps := make([]StepIO, n-1)
		for s := range steps {
			steps[s] = StepIO{SendRegion: -1, RecvRegion: -1}
		}
		if q < n-1 {
			steps[q].SendRegion = 0 // forward downstream on "my" step
		}
		if q > 0 {
			steps[q-1].RecvRegion = 0
		}
		return steps
	case Reduce:
		// Reverse chain: the whole buffer flows toward the root with a
		// reduction at every hop. Rotate so the root is last.
		// The whole buffer flows toward the root with a reduction at
		// every hop: pos n-1 -> n-2 -> ... -> 0 (root) in rotated-ring
		// terms, which is a forward chain on the reversed rotated ring.
		rev := ring.RotatedTo(root).Reversed()
		qr := rev.PosOf(rank)
		steps := make([]StepIO, n-1)
		for s := range steps {
			steps[s] = StepIO{SendRegion: -1, RecvRegion: -1}
		}
		if qr < n-1 {
			steps[qr].SendRegion = 0
		}
		if qr > 0 {
			steps[qr-1].RecvRegion = 0
			steps[qr-1].RecvReduce = true
		}
		return steps
	default:
		panic(fmt.Sprintf("collective: unknown op %v", op))
	}
}

// SendPeer returns the rank that receives rank's sends for op: Next in the
// ring for most ops, Prev-direction for Reduce (which flows toward the
// root).
func SendPeer(op Op, ring *Ring, rank, root int) int {
	if op == Reduce {
		return ring.RotatedTo(root).Reversed().Next(rank)
	}
	return ring.Next(rank)
}

// RecvPeer returns the rank whose sends this rank receives for op — the
// inverse of SendPeer.
func RecvPeer(op Op, ring *Ring, rank, root int) int {
	if op == Reduce {
		return ring.RotatedTo(root).Reversed().Prev(rank)
	}
	return ring.Prev(rank)
}

// NumRegions returns how many data regions op's schedule uses.
func NumRegions(op Op, n int) int {
	switch op {
	case Broadcast, Reduce:
		return 1
	default:
		return n
	}
}

// Regions splits count elements into n contiguous regions. Region i covers
// [starts[i], starts[i]+lens[i]). Regions are ceil-balanced: the first
// count%n regions hold one extra element, so sizes differ by at most one
// and sum to count.
func Regions(count int64, n int) (starts, lens []int64) {
	starts = make([]int64, n)
	lens = make([]int64, n)
	for i := 0; i < n; i++ {
		starts[i], lens[i] = Region(count, n, i)
	}
	return starts, lens
}

// Region returns region i of Regions(count, n) arithmetically, without
// building the tables — the form the per-step datapath uses.
func Region(count int64, n, i int) (start, length int64) {
	base := count / int64(n)
	rem := count % int64(n)
	k := int64(i)
	if k < rem {
		return k * (base + 1), base + 1
	}
	return rem*(base+1) + (k-rem)*base, base
}

// InPlaceAllReduceBytes etc.: size semantics per op, measured the way the
// NCCL tests measure them (output-buffer bytes).
//
// AlgBW is output bytes divided by elapsed time (the paper's "algorithm
// bandwidth", from the NCCL performance docs it cites).
func AlgBW(outputBytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(outputBytes) / elapsed.Seconds()
}

// BusBWFactor converts algorithm bandwidth to bus bandwidth — the
// algorithm-independent measure of exercised hardware bandwidth (NCCL
// tests' busbw). Multiply AlgBW by the factor.
func BusBWFactor(op Op, n int) float64 {
	if n <= 1 {
		return 1
	}
	nf := float64(n)
	switch op {
	case AllReduce:
		return 2 * (nf - 1) / nf
	case AllGather, ReduceScatter:
		return (nf - 1) / nf
	default: // Broadcast, Reduce: one full copy of the data moves
		return 1
	}
}
