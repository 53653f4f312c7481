package netsim

import (
	"fmt"
	"math"
	"time"

	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

// completion tolerance, in bytes: a flow with this much or less remaining
// is considered finished (guards against float rounding).
const byteEps = 0.5

// Group couples flows so that every member advances at the rate of the
// slowest member. This models a pipelined ring-collective step: the ring
// moves at the pace of its bottleneck edge.
type Group struct {
	id int
	// members is kept in ascending flow-ID order. Flow IDs are monotonic,
	// so StartFlow appends; CancelFlow/completion splice. The allocator's
	// successive-bottleneck loop scans this slice directly instead of
	// rebuilding and sorting a member list on every iteration.
	members []*flow
	// frozen is allocator scratch: set while the group's rate has been
	// fixed during the current allocate pass. Valid only inside allocate.
	frozen bool
}

// Flow is a handle to one transfer on the fabric, returned by StartFlow.
//
// Flow state lives in fabric-owned structs that are pooled and reused
// once a flow has ended (completed or canceled), so starting a flow
// allocates nothing in steady state. A handle is therefore a value — the
// struct plus the generation it was issued for — and every method checks
// the generation first:
//
//   - While the struct still holds the handle's flow (running, or ended
//     but not yet reused) the handle reports the flow's true state.
//   - Once a later StartFlow reuses the struct, the handle is stale and
//     inert: CancelFlow ignores it, Finished reports false, Rate and
//     Transferred report 0, and Done returns an event that has already
//     fired (the flow has left the fabric). A stale handle never reads
//     or changes the struct's new occupant.
//
// The zero Flow refers to no flow: CancelFlow ignores it and Finished
// reports false; its other methods must not be called.
type Flow struct {
	f   *flow
	gen uint32
}

// flow is the pooled state of one transfer. Its fields describe the
// current (or, once ended, the most recent) occupant.
type flow struct {
	ID       int
	Src, Dst NodeID
	Route    []LinkID
	Label    uint64

	// Tag identifies the collective step this flow carries, for the
	// flight recorder (zero for untagged/external traffic).
	Tag trace.FlowTag

	fb *Fabric
	// gen counts the struct's occupants; a Flow handle is live while its
	// gen matches.
	gen uint32
	// slot is the flow's index in Fabric.flows (dense, maintained
	// incrementally). The allocator's scratch buffers are indexed by
	// slot, so a recompute allocates nothing per flow.
	slot int

	bytes    float64 // total demand; +Inf for endless (background) flows
	done     float64
	rate     float64 // current allocated rate, bytes/sec
	maxRate  float64 // 0 = uncapped
	priority bool    // strict-priority flow, allocated before fair sharing
	external bool    // traffic outside the service's management
	group    *Group

	// doneEv is created on the first Done call, so flows nobody waits
	// on (the whole transport datapath) never allocate one. onDone is
	// fired with doneArg on normal completion (FlowOpts.OnDone).
	doneEv   *sim.Event
	onDone   sim.Handler
	doneArg  uint64
	finished bool
	canceled bool

	// Flight-recorder state: when the flow started, its rate history
	// (appended only while a LevelFull recorder is attached), and
	// whether its span has already been emitted.
	start     sim.Time
	samples   []trace.RateSample
	traceDone bool
}

// live returns the handle's flow, or nil if the handle is stale or zero.
func (h Flow) live() *flow {
	if h.f == nil || h.f.gen != h.gen {
		return nil
	}
	return h.f
}

// Rate returns the currently allocated rate in bytes per second. Reading
// it flushes any coalesced recompute, so the value always reflects every
// mutation made so far this instant.
func (h Flow) Rate() float64 {
	f := h.live()
	if f == nil {
		return 0
	}
	f.fb.flush()
	return f.rate
}

// Transferred returns the bytes delivered so far (as of the last fabric
// update; call Fabric.Sync for an up-to-the-instant figure).
func (h Flow) Transferred() float64 {
	f := h.live()
	if f == nil {
		return 0
	}
	f.fb.flush()
	return f.done
}

// Done returns the completion event; it fires when the full byte demand has
// been delivered (never, for endless flows, unless canceled). For a stale
// handle it returns an event that has already fired.
func (h Flow) Done() *sim.Event {
	f := h.live()
	if f == nil {
		return &h.f.fb.ended
	}
	if f.doneEv == nil {
		if f.finished {
			return &f.fb.ended
		}
		f.doneEv = &sim.Event{}
	}
	return f.doneEv
}

// Finished reports whether the flow completed normally (false for a stale
// handle).
func (h Flow) Finished() bool {
	f := h.live()
	return f != nil && f.finished
}

// FlowOpts configures StartFlow.
type FlowOpts struct {
	Src, Dst NodeID
	// Bytes is the transfer size; <= 0 means endless (a background flow
	// that runs until canceled).
	Bytes float64
	// Route pins the flow to an explicit path. If nil, the fabric applies
	// ECMP over the shortest paths using Label.
	Route []LinkID
	// Label distinguishes connections between the same endpoints for ECMP
	// hashing (the 5-tuple port analogue).
	Label uint64
	// MaxRate caps the flow's rate in bytes/sec (0 = uncapped). The flow
	// still competes fairly below the cap.
	MaxRate float64
	// FixedRate makes this a strict-priority flow: it is allocated
	// min(FixedRate, capacity) before fair sharing, squeezing normal
	// flows onto the residual. This models traffic outside the
	// simulated service's control (the paper's 75 Gbps background flow).
	FixedRate float64
	// External marks traffic not managed by the collective service
	// (background flows, other tenants' non-collective traffic). The
	// fabric accounts it separately so a monitoring agent can detect
	// "persistent large flows that are not managed by MCCS" (§6.2).
	External bool
	// Group, if non-nil, couples this flow's progress to the group's
	// bottleneck member.
	Group *Group
	// Tag labels the flow with the collective step it carries, for the
	// flight recorder.
	Tag trace.FlowTag
	// OnDone, if non-nil, is fired with DoneArg in scheduler context when
	// the flow completes normally — synchronously inside the completion,
	// after the fabric has re-allocated rates, so the handler may start
	// new flows at once. It is never fired for canceled or endless flows.
	OnDone  sim.Handler
	DoneArg uint64
}

// Fabric is the dynamic state of the network: the set of active flows and
// their max-min fair rates. All methods must be called from sim scheduler
// context.
//
// Mutations (StartFlow, CancelFlow, SetLinkCapacity, completions) do not
// recompute rates eagerly; they mark the fabric dirty and the whole batch
// is allocated once — at the latest when the scheduler leaves the current
// virtual instant (see sim.Scheduler.OnInstantEnd), and earlier if any
// rate, link-rate or byte counter is read. A ring step that launches N
// flows at one instant therefore costs a single max-min allocation, not N.
type Fabric struct {
	s   *sim.Scheduler
	net *Network

	// flows holds the active flows in ascending flow-ID order; a flow's
	// slot field is its index here. IDs are monotonic, so StartFlow
	// appends and removal splices — the order is maintained
	// incrementally instead of being rebuilt and sorted per allocation.
	flows []*flow
	// free stacks the pooled flow structs whose flows have ended; StartFlow
	// reuses them before allocating.
	free []*flow
	// ended is fired at construction: Done returns it for flows that
	// finished before anyone waited, and for stale handles.
	ended sim.Event
	// groups holds the coflow groups with at least one active member, in
	// ascending group-ID order (the allocator's deterministic scan
	// order).
	groups     []*Group
	nPriority  int // active strict-priority flows
	nextFlowID int
	nextGroup  int

	// dirty marks a pending coalesced recompute; flush clears it.
	dirty bool

	lastUpdate sim.Time
	timer      sim.Timer
	// onTimerFn is fb.onTimer, bound once: re-arming the completion
	// timer with the method value would allocate a closure every time.
	onTimerFn func()

	// linkRate[l] is the currently allocated aggregate rate on link l,
	// maintained by recompute for monitoring queries; externalRate[l]
	// is the portion from flows marked External.
	linkRate     []float64
	externalRate []float64

	// Recomputes counts rate allocations, for tests and perf sanity.
	// With coalescing this counts flushes, not mutations: a batch of K
	// same-instant flow starts increments it exactly once.
	Recomputes int

	// Telemetry handles, cached at construction; nil (and therefore
	// no-ops) when no registry is attached to the scheduler.
	telStarted    *telemetry.Counter
	telCompleted  *telemetry.Counter
	telCanceled   *telemetry.Counter
	telRecomputes *telemetry.Counter

	// Allocator scratch, owned by the fabric and reused across
	// recomputes so the steady-state hot path allocates nothing.
	// Per-slot buffers (indexed by Flow.slot):
	frozenRate []float64 // rate a flow was frozen at this pass
	frozenSet  []bool    // whether the flow is frozen
	bott       []LinkID  // committed bottleneck link, for the recorder
	fillRate   []float64 // current water-fill: resulting rate
	fillBneck  []LinkID  // current water-fill: saturating link
	fillLevel  []float64 // current water-fill: rising water level
	fillDone   []bool    // current water-fill: flow stopped rising
	// Flow/link scratch:
	active    []*flow   // water-fill participant list
	remCap    []float64 // per-link remaining capacity
	nActive   []int     // per-link count of unfrozen crossing flows
	linkMark  []bool    // per-link membership in touched
	touched   []LinkID  // links crossed by any active flow
	completed []*flow   // completion batch, reused by onTimer
}

// NewFabric creates a fabric over the given topology and registers its
// end-of-instant flush with the scheduler.
func NewFabric(s *sim.Scheduler, net *Network) *Fabric {
	fb := &Fabric{
		s:            s,
		net:          net,
		linkRate:     make([]float64, net.NumLinks()),
		externalRate: make([]float64, net.NumLinks()),
		remCap:       make([]float64, net.NumLinks()),
		nActive:      make([]int, net.NumLinks()),
		linkMark:     make([]bool, net.NumLinks()),
	}
	reg := telemetry.Of(s)
	fb.telStarted = reg.Counter("mccs_fabric_flows_started_total", "flows")
	fb.telCompleted = reg.Counter("mccs_fabric_flows_completed_total", "flows")
	fb.telCanceled = reg.Counter("mccs_fabric_flows_canceled_total", "flows")
	fb.telRecomputes = reg.Counter("mccs_fabric_recomputes_total", "allocations")
	fb.onTimerFn = fb.onTimer
	fb.ended.Signal(s)
	s.OnInstantEnd(fb.flush)
	return fb
}

// Network returns the underlying static topology.
func (fb *Fabric) Network() *Network { return fb.net }

// NewGroup returns a fresh coflow group.
func (fb *Fabric) NewGroup() *Group {
	fb.nextGroup++
	return &Group{id: fb.nextGroup}
}

// StartFlow begins a transfer and returns its handle. The route is
// validated; an invalid explicit route panics, as it indicates a programming
// error in the routing layer.
//
// The new flow's rate is computed lazily: starting K flows at one virtual
// instant costs one allocation, performed before the first rate read or
// the end of the instant, whichever comes first.
func (fb *Fabric) StartFlow(o FlowOpts) Flow {
	route := o.Route
	if route == nil {
		paths := fb.net.PathsBetween(o.Src, o.Dst)
		if len(paths) == 0 {
			panic(fmt.Sprintf("netsim: no path %s -> %s", fb.net.NodeName(o.Src), fb.net.NodeName(o.Dst)))
		}
		route = paths[ECMPIndex(o.Src, o.Dst, o.Label, len(paths))]
	}
	if err := fb.net.ValidateRoute(o.Src, o.Dst, route); err != nil {
		panic(err)
	}
	if len(route) == 0 {
		panic("netsim: zero-hop flow; intra-host transfers do not use the fabric")
	}
	bytes := o.Bytes
	if bytes <= 0 {
		bytes = math.Inf(1)
	}
	maxRate, priority := o.MaxRate, false
	if o.FixedRate > 0 {
		maxRate, priority = o.FixedRate, true
	}
	fb.progress()
	fb.nextFlowID++
	var fl *flow
	if n := len(fb.free); n > 0 {
		fl = fb.free[n-1]
		fb.free[n-1] = nil
		fb.free = fb.free[:n-1]
	} else {
		fl = &flow{}
	}
	*fl = flow{
		ID: fb.nextFlowID, Src: o.Src, Dst: o.Dst, Route: route, Label: o.Label,
		Tag: o.Tag,
		fb:  fb, gen: fl.gen + 1, slot: len(fb.flows),
		bytes: bytes, maxRate: maxRate, priority: priority, external: o.External,
		group:  o.Group,
		onDone: o.OnDone, doneArg: o.DoneArg,
		start: fb.s.Now(),
	}
	fb.flows = append(fb.flows, fl)
	fb.telStarted.Inc()
	if fl.priority {
		fb.nPriority++
	}
	if g := fl.group; g != nil {
		if len(g.members) == 0 {
			fb.insertGroup(g)
		}
		// IDs are monotonic: appending keeps members ID-ordered.
		g.members = append(g.members, fl)
	}
	fb.dirty = true
	return Flow{f: fl, gen: fl.gen}
}

// CancelFlow removes a flow before completion (its Done event does not
// fire). Canceling a finished, already-canceled, stale or zero handle is a
// no-op.
func (fb *Fabric) CancelFlow(h Flow) {
	fl := h.live()
	if fl == nil || fl.finished || fl.canceled {
		return
	}
	fb.progress()
	fl.canceled = true
	fb.telCanceled.Inc()
	fb.emitFlow(fl, trace.Of(fb.s))
	fb.remove(fl)
	fb.release(fl)
	fb.dirty = true
}

// release returns an ended flow's struct to the pool. The struct keeps
// describing the ended flow (for handles still holding it) until StartFlow
// reuses it; only references that would pin garbage are dropped.
func (fb *Fabric) release(fl *flow) {
	fl.group = nil
	fl.onDone = nil
	fl.samples = nil
	fb.free = append(fb.free, fl)
}

// emitFlow records the flow's transmit span: its route, the bytes it
// delivered, and its full rate/bottleneck history. Each flow emits at
// most once (completion, cancellation, or FlushTrace, whichever comes
// first).
func (fb *Fabric) emitFlow(fl *flow, rec *trace.Recorder) {
	if fl.traceDone || !rec.Enabled(trace.KindFlow) {
		return
	}
	fl.traceDone = true
	route := make([]int32, len(fl.Route))
	for i, l := range fl.Route {
		route[i] = int32(l)
	}
	sp := trace.Span{
		Kind: trace.KindFlow, Op: fl.Tag.Op,
		Start: fl.start, End: fb.s.Now(),
		Host: -1, GPU: -1,
		Comm: fl.Tag.Comm, Rank: fl.Tag.From, Peer: fl.Tag.To,
		Channel: fl.Tag.Channel, Gen: fl.Tag.Gen, Step: fl.Tag.Step, Seq: fl.Tag.Seq,
		Flow: int64(fl.ID), Bytes: int64(fl.done),
		Src: int32(fl.Src), Dst: int32(fl.Dst),
		Route: route, Rates: fl.samples,
	}
	if fl.Tag.Comm == 0 {
		sp.Op, sp.Rank, sp.Peer = -1, -1, -1
	}
	if fl.external {
		sp.Label = "external"
	}
	rec.Emit(sp)
}

// FlushTrace emits transmit spans for flows still active at the current
// instant — endless background flows and any transfer in flight when
// the run ends would otherwise never appear in the trace. Flushed flows
// keep running; their spans simply close at the flush time.
func (fb *Fabric) FlushTrace() {
	rec := trace.Of(fb.s)
	if !rec.Enabled(trace.KindFlow) {
		return
	}
	fb.flush()
	fb.progress()
	for _, fl := range fb.flows {
		fb.emitFlow(fl, rec)
	}
}

// insertGroup adds g to the active-group list, keeping it ID-ordered. A
// group usually activates with the largest ID yet seen (append), but an
// old group can be re-populated after draining, so insertion searches.
func (fb *Fabric) insertGroup(g *Group) {
	i := len(fb.groups)
	for i > 0 && fb.groups[i-1].id > g.id {
		i--
	}
	fb.groups = append(fb.groups, nil)
	copy(fb.groups[i+1:], fb.groups[i:])
	fb.groups[i] = g
}

// removeGroup drops a drained group from the active-group list.
func (fb *Fabric) removeGroup(g *Group) {
	for i, h := range fb.groups {
		if h == g {
			copy(fb.groups[i:], fb.groups[i+1:])
			fb.groups[len(fb.groups)-1] = nil
			fb.groups = fb.groups[:len(fb.groups)-1]
			return
		}
	}
}

// remove splices fl out of the ID-ordered flow list and its group.
func (fb *Fabric) remove(fl *flow) {
	i := fl.slot
	copy(fb.flows[i:], fb.flows[i+1:])
	fb.flows[len(fb.flows)-1] = nil
	fb.flows = fb.flows[:len(fb.flows)-1]
	for j := i; j < len(fb.flows); j++ {
		fb.flows[j].slot = j
	}
	if fl.priority {
		fb.nPriority--
	}
	if g := fl.group; g != nil {
		for j, m := range g.members {
			if m == fl {
				copy(g.members[j:], g.members[j+1:])
				g.members[len(g.members)-1] = nil
				g.members = g.members[:len(g.members)-1]
				break
			}
		}
		if len(g.members) == 0 {
			fb.removeGroup(g)
		}
	}
}

// Sync flushes any pending recompute and advances all flow byte counters
// to the current instant. Call before reading Transferred.
func (fb *Fabric) Sync() {
	fb.flush()
	fb.progress()
}

// SetLinkCapacity changes a link's capacity at runtime (maintenance,
// degradation, failure when set to ~0). Reallocation is coalesced like
// any other fabric mutation.
func (fb *Fabric) SetLinkCapacity(l LinkID, capacity float64) {
	if capacity < 0 {
		capacity = 0
	}
	fb.progress()
	fb.net.links[l].Capacity = capacity
	fb.dirty = true
}

// LinkState is an exact snapshot of one link's mutable state, taken by
// SnapshotLink and restored by RestoreLink. Fault injectors snapshot a
// link immediately before degrading it and restore the snapshot on
// expiry: restoring the exact pre-fault state — instead of recomputing
// a nominal value — makes back-to-back and nested injections on the
// same link compose (the inner fault's restore re-installs the outer
// fault's degraded capacity, and the outer restore re-installs the true
// pre-fault state).
type LinkState struct {
	Link     LinkID
	Capacity float64
}

// SnapshotLink captures link l's current mutable state.
func (fb *Fabric) SnapshotLink(l LinkID) LinkState {
	return LinkState{Link: l, Capacity: fb.net.links[l].Capacity}
}

// RestoreLink re-installs a snapshot taken by SnapshotLink. A restore
// that would not change the link is a no-op (no reallocation), so
// restoring an identical state is schedule-neutral.
func (fb *Fabric) RestoreLink(st LinkState) {
	if fb.net.links[st.Link].Capacity == st.Capacity {
		return
	}
	fb.SetLinkCapacity(st.Link, st.Capacity)
}

// LinkRate returns the aggregate allocated rate on link l in bytes/sec.
func (fb *Fabric) LinkRate(l LinkID) float64 {
	fb.flush()
	return fb.linkRate[l]
}

// ExternalRate returns the rate on link l from flows marked External —
// the signal a provider's switch agent reports for traffic outside the
// collective service's management.
func (fb *Fabric) ExternalRate(l LinkID) float64 {
	fb.flush()
	return fb.externalRate[l]
}

// LinkUtilization returns allocated rate / capacity for link l.
func (fb *Fabric) LinkUtilization(l LinkID) float64 {
	fb.flush()
	c := fb.net.Link(l).Capacity
	if c <= 0 {
		return 0
	}
	return fb.linkRate[l] / c
}

// ActiveFlows returns the number of in-flight flows.
func (fb *Fabric) ActiveFlows() int { return len(fb.flows) }

// FlowView is a read-only snapshot of one active flow for monitoring
// (the telemetry collector). Route aliases live fabric state: visitors
// must not retain or mutate it.
type FlowView struct {
	ID         int
	Comm       int32 // collective tag communicator; 0 for untagged
	External   bool
	Priority   bool
	Rate       float64
	Bottleneck LinkID // committed water-fill bottleneck; -1 if cap/demand-limited
	Route      []LinkID
}

// EachFlow visits the active flows in ascending flow-ID order with
// settled rates: it forces the coalesced flush first, so the committed
// bottleneck scratch is valid for every visited flow.
func (fb *Fabric) EachFlow(fn func(FlowView)) {
	fb.flush()
	for _, fl := range fb.flows {
		fn(FlowView{
			ID: fl.ID, Comm: fl.Tag.Comm,
			External: fl.external, Priority: fl.priority,
			Rate: fl.rate, Bottleneck: fb.bott[fl.slot], Route: fl.Route,
		})
	}
}

// ManagedFlows returns the number of in-flight flows that are NOT marked
// External — the traffic the collective service itself put on the fabric.
// A drained simulation with managed flows remaining has leaked transfers
// (the chaos harness's quiescence invariant); external background flows
// are excluded because injectors may legitimately leave them running.
func (fb *Fabric) ManagedFlows() int {
	n := 0
	for _, fl := range fb.flows {
		if !fl.external {
			n++
		}
	}
	return n
}

// progress advances byte counters to now at current rates.
func (fb *Fabric) progress() {
	now := fb.s.Now()
	dt := now.Sub(fb.lastUpdate).Seconds()
	fb.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, fl := range fb.flows {
		fl.done += fl.rate * dt
		if fl.done > fl.bytes {
			fl.done = fl.bytes
		}
	}
}

// flush applies the pending mutation batch, if any: it recomputes max-min
// rates once for everything that changed this instant and re-arms the
// completion timer. Every user-visible read (Rate, Transferred, Sync,
// LinkRate, ExternalRate, LinkUtilization, FlushTrace) forces a flush,
// and the scheduler's end-of-instant hook forces one before virtual time
// advances — so rates are always consistent at any observation point and
// across instants, no matter how many mutations were batched.
func (fb *Fabric) flush() {
	if !fb.dirty {
		return
	}
	fb.dirty = false
	fb.progress()
	fb.recompute()
}

// recompute reruns the max-min allocation and reschedules the next
// completion timer. Callers must progress() first.
func (fb *Fabric) recompute() {
	fb.Recomputes++
	fb.telRecomputes.Inc()
	fb.allocate()
	fb.schedule()
}

// growScratch sizes the per-slot scratch buffers for n flows. Buffers are
// grown geometrically and reused; a steady-state recompute allocates
// nothing here.
func (fb *Fabric) growScratch(n int) {
	if cap(fb.frozenRate) < n {
		c := n + n/2 + 8
		fb.frozenRate = make([]float64, c)
		fb.frozenSet = make([]bool, c)
		fb.bott = make([]LinkID, c)
		fb.fillRate = make([]float64, c)
		fb.fillBneck = make([]LinkID, c)
		fb.fillLevel = make([]float64, c)
		fb.fillDone = make([]bool, c)
	}
	fb.frozenRate = fb.frozenRate[:n]
	fb.frozenSet = fb.frozenSet[:n]
	fb.bott = fb.bott[:n]
	fb.fillRate = fb.fillRate[:n]
	fb.fillBneck = fb.fillBneck[:n]
	fb.fillLevel = fb.fillLevel[:n]
	fb.fillDone = fb.fillDone[:n]
}

// allocate computes max-min fair rates with group coupling and rate caps.
//
// The outer loop repeatedly water-fills, then freezes the group with the
// smallest bottleneck rate at that rate (all members pinned to the group
// minimum, modelling lock-step ring steps); it repeats until no unfrozen
// groups remain, then takes the final fill for ungrouped flows. This is the
// successive-bottleneck construction; it terminates after at most
// #groups + 1 fills.
//
// All working state lives in fabric-owned, slot-indexed scratch buffers
// (see growScratch); referenceAllocate is the retired map-based
// implementation, kept as a differential-testing oracle.
func (fb *Fabric) allocate() {
	for i := range fb.linkRate {
		fb.linkRate[i] = 0
		fb.externalRate[i] = 0
	}
	n := len(fb.flows)
	if n == 0 {
		return
	}
	fb.growScratch(n)
	for i := 0; i < n; i++ {
		fb.frozenSet[i] = false
		fb.frozenRate[i] = 0
		fb.bott[i] = -1
	}
	for _, g := range fb.groups {
		g.frozen = false
	}
	// Strict-priority flows are allocated first (water-filled among
	// themselves, each capped at its fixed rate) and then frozen, so fair
	// sharing below only sees the residual capacity.
	if fb.nPriority > 0 {
		fb.waterfill(true)
		for _, fl := range fb.flows {
			if !fl.priority {
				continue
			}
			s := fl.slot
			fb.frozenRate[s] = fb.fillRate[s]
			fb.frozenSet[s] = true
			fb.bott[s] = fb.fillBneck[s]
		}
	}
	for {
		fb.waterfill(false)
		// Find the unfrozen group with the smallest member-minimum rate.
		// fb.groups is ID-ordered and the comparison is strict, so rate
		// ties deterministically pick the smallest group ID; within a
		// group, the ID-ordered member scan picks the smallest-ID member
		// on ties.
		var pick *Group
		var pickSlowest *flow
		pickMin := math.Inf(1)
		for _, g := range fb.groups {
			if g.frozen {
				continue
			}
			gmin := math.Inf(1)
			var slowest *flow
			for _, m := range g.members {
				r := 0.0
				if !fb.frozenSet[m.slot] {
					r = fb.fillRate[m.slot]
				}
				if r < gmin {
					gmin = r
					slowest = m
				}
			}
			if gmin < pickMin {
				pickMin = gmin
				pick = g
				pickSlowest = slowest
			}
		}
		if pick == nil {
			// Done: commit rates in flow-ID order (link-rate sums are
			// float accumulations; the order must be deterministic).
			for _, fl := range fb.flows {
				s := fl.slot
				if fb.frozenSet[s] {
					fl.rate = fb.frozenRate[s]
				} else {
					fl.rate = fb.fillRate[s]
					fb.bott[s] = fb.fillBneck[s]
				}
				for _, l := range fl.Route {
					fb.linkRate[l] += fl.rate
					if fl.external {
						fb.externalRate[l] += fl.rate
					}
				}
			}
			fb.sampleRates()
			return
		}
		pick.frozen = true
		// Group members are pinned to the slowest member's rate, so its
		// bottleneck is theirs.
		pb := fb.fillBneck[pickSlowest.slot]
		for _, m := range pick.members {
			s := m.slot
			fb.frozenRate[s] = pickMin
			fb.frozenSet[s] = true
			fb.bott[s] = pb
		}
	}
}

// maxSamples bounds a single flow's recorded rate history; an endless
// background flow on a busy fabric would otherwise grow without bound.
const maxSamples = 512

// sampleRates appends a rate sample to every flow whose allocation
// changed, when a LevelFull recorder is attached. Flows are visited in
// ID order and each sample captures the flow's bottleneck link and that
// link's aggregate/external load, which is all the attribution pass
// needs. With coalesced recomputes a sample reflects the net effect of
// the instant's whole mutation batch; transient rates between same-
// instant mutations are never allocated, so they are never sampled.
func (fb *Fabric) sampleRates() {
	rec := trace.Of(fb.s)
	if !rec.Enabled(trace.KindFlow) {
		return
	}
	now := fb.s.Now()
	for _, fl := range fb.flows {
		b := fb.bott[fl.slot]
		s := trace.RateSample{T: now, Bps: fl.rate, Bottleneck: int32(b)}
		if b >= 0 {
			s.LinkBps = fb.linkRate[b]
			s.ExtBps = fb.externalRate[b]
			s.CapBps = fb.net.links[b].Capacity
		}
		if n := len(fl.samples); n > 0 {
			last := fl.samples[n-1]
			if last.Bps == s.Bps && last.Bottleneck == s.Bottleneck &&
				last.LinkBps == s.LinkBps && last.ExtBps == s.ExtBps && last.CapBps == s.CapBps {
				continue
			}
			if n >= maxSamples {
				continue
			}
		}
		fl.samples = append(fl.samples, s)
	}
}

// waterfill runs classic progressive filling over the non-frozen flows
// (only the strict-priority ones when priorityOnly is set), treating
// frozen flows as fixed background load. Results land in the fillRate /
// fillBneck scratch: the rate for every participating flow, plus the
// link that saturated and froze it (-1 for flows stopped by their own
// rate cap or by nothing at all) — the per-fill bottleneck record the
// flight recorder samples. Slots not participating read as rate 0,
// bottleneck -1.
func (fb *Fabric) waterfill(priorityOnly bool) {
	n := len(fb.flows)
	for i := 0; i < n; i++ {
		fb.fillRate[i] = 0
		fb.fillBneck[i] = -1
		fb.fillLevel[i] = 0
		fb.fillDone[i] = false
	}
	active := fb.active[:0]
	for _, fl := range fb.flows {
		if fb.frozenSet[fl.slot] {
			continue
		}
		if priorityOnly && !fl.priority {
			continue
		}
		active = append(active, fl)
	}

	remCap := fb.remCap
	for _, l := range fb.net.links {
		remCap[l.ID] = l.Capacity
	}
	// Frozen flows are fixed background load. Subtract in flow-ID order:
	// float subtraction is order-sensitive in its low bits, and this was
	// the one map-ordered (and therefore nondeterministic) accumulation
	// in the original allocator.
	for _, fl := range fb.flows {
		if !fb.frozenSet[fl.slot] {
			continue
		}
		r := fb.frozenRate[fl.slot]
		for _, l := range fl.Route {
			remCap[l] -= r
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
	}
	nAct, mark := fb.nActive, fb.linkMark
	touched := fb.touched[:0]
	for _, fl := range active {
		for _, l := range fl.Route {
			nAct[l]++
			if !mark[l] {
				mark[l] = true
				touched = append(touched, l)
			}
		}
	}

	remaining := len(active)
	for remaining > 0 {
		// Smallest headroom-per-flow across loaded links, and the
		// smallest gap to a flow's rate cap.
		inc := math.Inf(1)
		for _, l := range touched {
			if nAct[l] > 0 {
				if h := remCap[l] / float64(nAct[l]); h < inc {
					inc = h
				}
			}
		}
		for _, fl := range active {
			if fb.fillDone[fl.slot] || fl.maxRate <= 0 {
				continue
			}
			if gap := fl.maxRate - fb.fillLevel[fl.slot]; gap < inc {
				inc = gap
			}
		}
		if math.IsInf(inc, 1) {
			// No constraining link or cap: should not happen since every
			// route has at least one finite link; guard anyway.
			for _, fl := range active {
				if !fb.fillDone[fl.slot] {
					fb.fillRate[fl.slot] = fb.fillLevel[fl.slot]
					fb.fillBneck[fl.slot] = -1
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, fl := range active {
			if !fb.fillDone[fl.slot] {
				fb.fillLevel[fl.slot] += inc
			}
		}
		for _, l := range touched {
			remCap[l] -= inc * float64(nAct[l])
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
		// Freeze flows on saturated links and flows at their caps.
		capEps := 1e-6 // bytes/sec; far below any real link scale
		for _, fl := range active {
			s := fl.slot
			if fb.fillDone[s] {
				continue
			}
			stop := fl.maxRate > 0 && fb.fillLevel[s] >= fl.maxRate-capEps
			blink := LinkID(-1)
			if !stop {
				for _, l := range fl.Route {
					if remCap[l] <= capEps {
						stop = true
						blink = l
						break
					}
				}
			}
			if stop {
				fb.fillDone[s] = true
				fb.fillRate[s] = fb.fillLevel[s]
				fb.fillBneck[s] = blink
				remaining--
				for _, l := range fl.Route {
					nAct[l]--
				}
			}
		}
	}
	// Reset the per-link scratch so the next fill starts clean (the
	// early-break path leaves residual counts behind).
	for _, l := range touched {
		nAct[l] = 0
		mark[l] = false
	}
	fb.active = active[:0]
	fb.touched = touched[:0]
}

// schedule arms the completion timer for the earliest-finishing flow.
func (fb *Fabric) schedule() {
	fb.timer.Stop()
	fb.timer = sim.Timer{}
	next := math.Inf(1)
	for _, fl := range fb.flows {
		if fl.rate <= 0 || math.IsInf(fl.bytes, 1) {
			continue
		}
		rem := fl.bytes - fl.done
		if rem <= byteEps {
			next = 0
			break
		}
		if t := rem / fl.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	// Clamp absurd horizons (a near-zero rate) so the Duration conversion
	// cannot overflow; the timer will re-arm on the next fabric change.
	const maxHorizonSec = 1e9
	if next > maxHorizonSec {
		next = maxHorizonSec
	}
	d := time.Duration(next * float64(time.Second))
	// Never arm a zero-duration timer: with sub-nanosecond residues the
	// clock would not advance, no bytes would move, and the timer would
	// re-arm forever. One nanosecond of progress always clears residues.
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	fb.timer = fb.s.After(d, fb.onTimerFn)
}

func (fb *Fabric) onTimer() {
	fb.timer = sim.Timer{}
	fb.progress()
	completed := fb.completed[:0]
	for _, fl := range fb.flows { // already in flow-ID order
		if !math.IsInf(fl.bytes, 1) && fl.bytes-fl.done <= byteEps {
			completed = append(completed, fl)
		}
	}
	fb.completed = completed[:0] // keep grown capacity for reuse
	rec := trace.Of(fb.s)
	for _, fl := range completed {
		fl.done = fl.bytes
		fl.finished = true
		fb.telCompleted.Inc()
		fb.emitFlow(fl, rec)
		fb.remove(fl)
	}
	// Flush before signaling so that completion handlers that
	// immediately start new flows observe a clean, consistent fabric.
	// Each flow returns to the pool only after its own handler ran, so a
	// handler's StartFlow cannot reuse a flow whose handler is still due.
	fb.dirty = true
	fb.flush()
	for _, fl := range completed {
		if fl.doneEv != nil {
			fl.doneEv.Signal(fb.s)
		}
		if fl.onDone != nil {
			fl.onDone.Fire(fl.doneArg)
		}
		fb.release(fl)
	}
}
