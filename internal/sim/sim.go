// Package sim implements a deterministic cooperative virtual-time scheduler.
//
// All higher layers of this repository (the network fabric, the simulated GPU
// runtime, the MCCS service engines and the tenant applications) execute as
// sim processes. Exactly one process runs at any instant; a process gives up
// control only at explicit blocking points (Sleep, queue pops, event waits).
// The scheduler advances a virtual clock between events, so a multi-host,
// multi-second experiment executes in milliseconds of real time and is
// reproducible bit-for-bit.
//
// Concurrency model: the scheduler and every process goroutine exchange a
// baton; no two of them run concurrently, so simulation state needs no locks.
// All sim objects must be touched only from scheduler context (process bodies
// and timer callbacks).
//
// # Performance shape
//
// The event loop is the hot path under every experiment in the repository,
// so it is built to schedule and fire events without allocating:
//
//   - Events live in a pooled arena ([]event indexed by int32) with an index
//     free list; firing or canceling an event recycles its slot. A
//     per-slot generation counter keeps recycled Timer handles inert.
//   - Pending events sit in an intrusive 4-ary min-heap of arena indexes
//     ordered by (at, seq) — no interface boxing, no per-element
//     allocation, and a shallower tree than the binary container/heap it
//     replaced. Canceled events are dropped lazily and the heap compacts
//     itself when more than half its entries are dead.
//   - Events scheduled for the current instant bypass the heap entirely and
//     append to the ready set (sequence order is preserved because new
//     events always draw larger sequence numbers).
//   - The dominant scheduling actions — process start, wakeup, Sleep — are
//     tagged event kinds interpreted by the loop, not closures, so none of
//     them allocates a func() per action. Layers above schedule their own
//     per-message work the same way: CallAt/CallAfter fire a Handler with
//     a uint64 argument, so a long-lived object can multiplex all of its
//     timed callbacks through one method without a closure per event.
//
// The observable schedule — the (at, seq) observer stream, and therefore
// every same-seed trace, telemetry export and chaos replay — is
// byte-for-byte identical to the original container/heap implementation;
// TestScheduleFingerprintGolden at the repository root pins it.
package sim

import (
	"fmt"
	"slices"
	"time"
)

// Time is a virtual timestamp, measured as an offset from the start of the
// simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for call-site brevity.
type Duration = time.Duration

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

func (t Time) String() string { return time.Duration(t).String() }

// procState tracks where a process is in its lifecycle.
type procState int

const (
	procRunnable procState = iota
	procRunning
	procParked
	procDone
)

// Proc is a simulated process. A Proc is created by Scheduler.Go and passed
// to the process body; the body uses it for all blocking operations.
type Proc struct {
	s       *Scheduler
	name    string
	id      int
	state   procState
	daemon  bool   // excluded from deadlock detection (long-lived service loops)
	killed  bool   // set by Shutdown; park unwinds instead of resuming
	parkSeq uint64 // increments at every park; stale wakeups are discarded
	resume  chan struct{}

	// parkedIdx / liveIdx are this process's slots in the scheduler's
	// parked and live slices (intrusive bookkeeping; -1 when absent).
	parkedIdx int32
	liveIdx   int32

	// wakeReason is set by the waker immediately before readying the
	// process, and read by the parked process when it resumes.
	wakeReason any
}

// Name returns the debug name the process was created with.
func (p *Proc) Name() string { return p.name }

// Scheduler returns the scheduler this process belongs to.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// eventKind tags what firing an event means. The dominant scheduling
// actions are data, not closures: the loop interprets the tag, so
// starting, waking or sleeping a process allocates nothing.
type eventKind uint8

const (
	evFn       eventKind = iota // run a user callback (At/After)
	evDispatch                  // hand the baton to proc
	evWake                      // ready(proc, arg, reason) — Sleep and timed waits
	evCall                      // h.Fire(arg) — CallAt/CallAfter
)

// Handler is the target of a closure-free callback event (CallAt,
// CallAfter). Fire runs in scheduler context with the argument the event
// was scheduled with. A long-lived object (a transport connection)
// implements Handler once and encodes which of its callbacks is due, and
// for which item, in arg — so scheduling one costs no allocation, where a
// func() closure capturing the same state would cost one per event.
type Handler interface {
	Fire(arg uint64)
}

// event is a scheduled callback slot in the arena. By default events fire
// in (at, seq) order; seq breaks ties so that events scheduled earlier run
// earlier, which keeps the simulation deterministic. An installed Picker
// (see SetPicker) may permute the firing order among events that share a
// timestamp — the foundation of the chaos harness's schedule fuzzing.
type event struct {
	at       Time
	seq      uint64
	gen      uint32 // bumped on every recycle; guards stale Timer handles
	kind     eventKind
	canceled bool
	inHeap   bool

	fn     func()  // evFn
	h      Handler // evCall
	proc   *Proc   // evDispatch, evWake
	arg    uint64  // evWake: the park sequence to wake; evCall: Fire's argument
	reason any     // evWake
}

// Timer is a handle to a scheduled callback that can be stopped. The zero
// Timer is valid and inert. Timers are plain values: copying one copies
// the handle, and stopping any copy cancels the same event.
type Timer struct {
	s   *Scheduler
	idx int32
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the timer
// was still pending. Stopping a fired, already-stopped, or zero timer is a
// safe no-op: the generation counter on the event slot means a handle to a
// recycled slot can never cancel the slot's new occupant.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.arena[t.idx]
	if ev.gen != t.gen || ev.canceled {
		return false
	}
	ev.canceled = true
	if ev.inHeap {
		t.s.heapDead++
		t.s.maybeCompactHeap()
	}
	return true
}

// Picker selects which of n same-instant ready events fires next. It is
// consulted only when more than one event is runnable at the current
// virtual time; returning a value outside [0, n) falls back to index 0.
// A deterministic Picker (e.g. a seeded PRNG) keeps the simulation
// bit-reproducible while exploring interleavings the default FIFO order
// never reaches.
type Picker interface {
	Pick(n int) int
}

// Scheduler owns the virtual clock and the event queue.
type Scheduler struct {
	now Time
	seq uint64

	// arena is the pooled event storage; free lists recycled slots.
	arena []event
	free  []int32

	// heap is an intrusive 4-ary min-heap of arena indexes ordered by
	// (at, seq). heapDead counts canceled entries still inside it; they
	// are dropped lazily on pop and in bulk by maybeCompactHeap.
	heap     []int32
	heapDead int

	// readySet holds the current instant's runnable events as arena
	// indexes. Entries before readyHead have been consumed (the head
	// advances instead of shifting the slice, so FIFO picks are O(1)).
	// Entries from committed onward were scheduled since the last drain
	// point and are not yet pick candidates: commitReady filters the
	// canceled ones out before the next pick, which reproduces exactly
	// the visibility the heap round-trip used to give them.
	readySet  []int32
	readyHead int
	committed int

	yield  chan struct{}
	nextID int

	picker   Picker
	observer func(at Time, seq uint64)

	// instantEnd holds the end-of-instant flushers (see OnInstantEnd).
	instantEnd []func()

	// traceSink is an opaque attachment point for the flight recorder
	// (internal/trace). The scheduler is the one object every layer
	// already holds, so parking the recorder here lets instrumentation
	// reach it without threading a new parameter through every
	// constructor — and without this package importing the trace
	// package.
	traceSink any

	// metricsSink is the same attachment pattern for the live telemetry
	// registry (internal/telemetry): engines cache metric handles from it
	// at construction time, so it must be installed before the layers are
	// built.
	metricsSink any

	// liveProcs holds every process that has not finished (including ones
	// never yet dispatched); parked holds the currently-parked subset.
	// Both are intrusive slices with swap-removal via the indexes stored
	// on the Proc.
	liveProcs []*Proc
	parked    []*Proc
	current   *Proc

	panicked any
}

// New returns an empty scheduler positioned at the simulation epoch.
func New() *Scheduler {
	return &Scheduler{
		yield: make(chan struct{}, 1),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// SetPicker installs a tie-break policy among same-timestamp events. nil
// restores the default FIFO (scheduling-order) policy. Install before Run;
// switching mid-run is allowed but changes which interleaving is explored
// from that point on.
func (s *Scheduler) SetPicker(pk Picker) { s.picker = pk }

// SetObserver installs a hook invoked immediately before every executed
// event with the event's firing time and sequence number. The sequence of
// (at, seq) pairs is a complete fingerprint of the simulation schedule:
// two runs are the same interleaving iff their observer streams match.
func (s *Scheduler) SetObserver(fn func(at Time, seq uint64)) { s.observer = fn }

// OnInstantEnd registers fn to run whenever the scheduler is about to
// advance the virtual clock past the current instant, and once more when
// the event queue drains. Layers that batch same-instant work (the
// network fabric coalescing rate recomputations into one allocation per
// instant) use it to flush pending state before time moves on, so every
// cross-instant observable is consistent no matter how many mutations the
// instant contained.
//
// fn may schedule new events — including events earlier than the pending
// queue head — and the scheduler re-evaluates the queue when it does. fn
// must be idempotent and cheap when there is nothing to flush: it can be
// invoked more than once per instant.
func (s *Scheduler) OnInstantEnd(fn func()) {
	s.instantEnd = append(s.instantEnd, fn)
}

// runInstantEnd invokes the registered end-of-instant flushers and
// reports whether any of them scheduled new work. Detection is by the
// monotonic event sequence counter, which every schedule draws from.
func (s *Scheduler) runInstantEnd() bool {
	if len(s.instantEnd) == 0 {
		return false
	}
	before := s.seq
	for _, fn := range s.instantEnd {
		fn()
	}
	return s.seq != before
}

// SetTraceSink attaches an opaque value (in practice a *trace.Recorder)
// that instrumented layers retrieve via TraceSink. The scheduler itself
// never touches it.
func (s *Scheduler) SetTraceSink(v any) { s.traceSink = v }

// TraceSink returns the value installed by SetTraceSink, or nil.
func (s *Scheduler) TraceSink() any { return s.traceSink }

// SetMetricsSink attaches an opaque value (in practice a
// *telemetry.Registry) that instrumented layers retrieve via
// MetricsSink. The scheduler itself never touches it.
func (s *Scheduler) SetMetricsSink(v any) { s.metricsSink = v }

// MetricsSink returns the value installed by SetMetricsSink, or nil.
func (s *Scheduler) MetricsSink() any { return s.metricsSink }

// ---------------------------------------------------------------------------
// Event arena

// allocEvent returns a free arena slot, reusing recycled ones first.
func (s *Scheduler) allocEvent() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.arena = append(s.arena, event{})
	return int32(len(s.arena) - 1)
}

// recycleEvent returns a slot to the free list. The generation bump
// invalidates every outstanding Timer handle to the slot, and the
// reference fields are cleared so the arena pins no dead closures.
func (s *Scheduler) recycleEvent(idx int32) {
	ev := &s.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.h = nil
	ev.proc = nil
	ev.reason = nil
	s.free = append(s.free, idx)
}

// schedule places a freshly-initialized event: the heap for future
// instants, or — the fast path — straight onto the ready set when it is
// due this very instant. Appending preserves (at, seq) pick order because
// a new event's seq is larger than every seq already drawn, which is
// exactly the position the heap round-trip would have given it.
func (s *Scheduler) schedule(t Time, kind eventKind, fn func(), h Handler, p *Proc, arg uint64, reason any) (int32, uint32) {
	s.seq++
	idx := s.allocEvent()
	ev := &s.arena[idx]
	ev.at, ev.seq, ev.kind = t, s.seq, kind
	ev.canceled = false
	ev.fn, ev.h, ev.proc, ev.arg, ev.reason = fn, h, p, arg, reason
	if t == s.now {
		ev.inHeap = false
		s.readySet = append(s.readySet, idx)
	} else {
		ev.inHeap = true
		s.heapPush(idx)
	}
	return idx, ev.gen
}

// ---------------------------------------------------------------------------
// Intrusive 4-ary min-heap over the arena, ordered by (at, seq)

func (s *Scheduler) heapPush(idx int32) {
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

// heapPopHead removes and returns the heap minimum. The caller owns the
// popped index (clears inHeap, recycles or readies it).
func (s *Scheduler) heapPopHead() int32 {
	h := s.heap
	top := h[0]
	last := h[len(h)-1]
	s.heap = h[:len(h)-1]
	if len(s.heap) > 0 {
		s.siftDown(0, last)
	}
	return top
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	idx := h[i]
	at, seq := s.arena[idx].at, s.arena[idx].seq
	for i > 0 {
		parent := (i - 1) >> 2
		pe := &s.arena[h[parent]]
		if at > pe.at || (at == pe.at && seq > pe.seq) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = idx
}

// siftDown re-inserts idx starting at hole position i.
func (s *Scheduler) siftDown(i int, idx int32) {
	h := s.heap
	n := len(h)
	at, seq := s.arena[idx].at, s.arena[idx].seq
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		me := &s.arena[h[first]]
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			je := &s.arena[h[j]]
			if je.at < me.at || (je.at == me.at && je.seq < me.seq) {
				min, me = j, je
			}
		}
		if at < me.at || (at == me.at && seq < me.seq) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = idx
}

// maybeCompactHeap drops canceled entries in bulk once they outnumber the
// live ones: filter in place, then heapify bottom-up. The floor keeps
// small heaps from compacting on every cancel.
func (s *Scheduler) maybeCompactHeap() {
	const minCompact = 32
	if len(s.heap) < minCompact || s.heapDead*2 <= len(s.heap) {
		return
	}
	kept := 0
	for _, idx := range s.heap {
		ev := &s.arena[idx]
		if ev.canceled {
			ev.inHeap = false
			s.recycleEvent(idx)
			continue
		}
		s.heap[kept] = idx
		kept++
	}
	s.heap = s.heap[:kept]
	s.heapDead = 0
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i, s.heap[i])
	}
}

// ---------------------------------------------------------------------------
// Scheduling API

// Go creates a process named name executing fn and schedules it to start at
// the current virtual time.
func (s *Scheduler) Go(name string, fn func(p *Proc)) *Proc {
	s.nextID++
	p := &Proc{
		s:         s,
		name:      name,
		id:        s.nextID,
		state:     procRunnable,
		parkedIdx: -1,
		resume:    make(chan struct{}, 1),
	}
	p.liveIdx = int32(len(s.liveProcs))
	s.liveProcs = append(s.liveProcs, p)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if _, unwound := r.(procKilled); !unwound && s.panicked == nil {
					s.panicked = fmt.Sprintf("sim process %q panicked: %v", p.name, r)
				}
			}
			p.state = procDone
			s.dropLive(p)
			s.yield <- struct{}{}
		}()
		if !p.killed {
			fn(p)
		}
	}()
	s.schedule(s.now, evDispatch, nil, nil, p, 0, nil)
	return p
}

// GoDaemon is Go for service loops that legitimately outlive the workload:
// a daemon parked forever does not count as a deadlock.
func (s *Scheduler) GoDaemon(name string, fn func(p *Proc)) *Proc {
	p := s.Go(name, fn)
	p.daemon = true
	return p
}

// At schedules fn to run in scheduler context at time t (or now, if t is in
// the past). The returned Timer can cancel it.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	idx, gen := s.schedule(t, evFn, fn, nil, nil, 0, nil)
	return Timer{s: s, idx: idx, gen: gen}
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	return s.At(s.now.Add(d), fn)
}

// CallAt schedules h.Fire(arg) in scheduler context at time t (or now, if
// t is in the past). It is At without the closure: the event draws its
// sequence number exactly as At would, so replacing an At(t, func() {
// h.Fire(arg) }) with CallAt(t, h, arg) leaves the schedule unchanged.
func (s *Scheduler) CallAt(t Time, h Handler, arg uint64) Timer {
	if t < s.now {
		t = s.now
	}
	idx, gen := s.schedule(t, evCall, nil, h, nil, arg, nil)
	return Timer{s: s, idx: idx, gen: gen}
}

// CallAfter schedules h.Fire(arg) to run d from now.
func (s *Scheduler) CallAfter(d Duration, h Handler, arg uint64) Timer {
	return s.CallAt(s.now.Add(d), h, arg)
}

// wakeAt schedules a cancellable wakeup for p at time t: when it fires,
// p is readied with reason iff its park sequence still matches seq. This
// is the allocation-free backing for Sleep and timed waits.
func (s *Scheduler) wakeAt(t Time, p *Proc, seq uint64, reason any) Timer {
	idx, gen := s.schedule(t, evWake, nil, nil, p, seq, reason)
	return Timer{s: s, idx: idx, gen: gen}
}

// ---------------------------------------------------------------------------
// Process state

// dropLive removes p from the live-process slice (swap-removal).
func (s *Scheduler) dropLive(p *Proc) {
	i := p.liveIdx
	if i < 0 {
		return
	}
	last := s.liveProcs[len(s.liveProcs)-1]
	s.liveProcs[i] = last
	last.liveIdx = i
	s.liveProcs = s.liveProcs[:len(s.liveProcs)-1]
	p.liveIdx = -1
}

// dropParked removes p from the parked slice (swap-removal).
func (s *Scheduler) dropParked(p *Proc) {
	i := p.parkedIdx
	if i < 0 {
		return
	}
	last := s.parked[len(s.parked)-1]
	s.parked[i] = last
	last.parkedIdx = i
	s.parked = s.parked[:len(s.parked)-1]
	p.parkedIdx = -1
}

// dispatch hands the baton to p and waits for it to park or exit.
func (s *Scheduler) dispatch(p *Proc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	s.current = p
	p.resume <- struct{}{}
	<-s.yield
	s.current = nil
	if s.panicked != nil {
		panic(s.panicked)
	}
}

// procKilled is the panic value park uses to unwind a process being
// terminated by Shutdown; the process wrapper recognizes and swallows it.
type procKilled struct{}

// park blocks the current process until something calls ready on it. It
// returns the wakeReason installed by the waker.
func (p *Proc) park() any {
	if p.s.current != p {
		panic("sim: park called from a process that is not running")
	}
	p.state = procParked
	p.parkSeq++
	p.parkedIdx = int32(len(p.s.parked))
	p.s.parked = append(p.s.parked, p)
	p.s.yield <- struct{}{}
	<-p.resume
	if p.killed {
		panic(procKilled{})
	}
	reason := p.wakeReason
	p.wakeReason = nil
	return reason
}

// ready marks a parked process runnable, scheduling its resumption at the
// current virtual time. seq guards against stale wakeups.
func (s *Scheduler) ready(p *Proc, seq uint64, reason any) {
	if p.state != procParked || p.parkSeq != seq {
		return
	}
	p.state = procRunnable
	s.dropParked(p)
	p.wakeReason = reason
	s.schedule(s.now, evDispatch, nil, nil, p, 0, nil)
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.s.wakeAt(p.s.now.Add(d), p, p.parkSeq+1, nil)
	p.park()
}

// SleepUntil suspends the process until virtual time t.
func (p *Proc) SleepUntil(t Time) {
	p.Sleep(t.Sub(p.s.now))
}

// Yield reschedules the process behind every event already queued for the
// current instant.
func (p *Proc) Yield() { p.Sleep(0) }

// DeadlockError reports processes that can never be woken: the event queue
// drained while they were still parked.
type DeadlockError struct {
	Now    Time
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) parked forever: %v",
		time.Duration(e.Now), len(e.Parked), e.Parked)
}

// ---------------------------------------------------------------------------
// The event loop

// Run executes events until the queue drains. It returns a *DeadlockError if
// processes remain parked with no pending events, and nil otherwise.
func (s *Scheduler) Run() error {
	return s.RunUntil(Time(1<<62 - 1))
}

// readyLen returns the number of events in the ready set (consumed head
// slots excluded).
func (s *Scheduler) readyLen() int { return len(s.readySet) - s.readyHead }

// commitReady makes the events scheduled since the last drain point pick
// candidates, discarding those canceled in the meantime. This reproduces
// the pre-arena heap semantics exactly: an event scheduled and canceled
// within the same turn never became visible to the Picker, while one
// canceled after entering the ready set stays (and is skipped when
// picked).
func (s *Scheduler) commitReady() {
	if s.committed < len(s.readySet) {
		kept := s.committed
		for i := s.committed; i < len(s.readySet); i++ {
			idx := s.readySet[i]
			if s.arena[idx].canceled {
				s.recycleEvent(idx)
				continue
			}
			s.readySet[kept] = idx
			kept++
		}
		s.readySet = s.readySet[:kept]
	}
	s.committed = len(s.readySet)
}

// RunUntil executes events with timestamps <= limit. The clock stops at the
// last executed event (or limit if events remain beyond it).
//
// Events sharing a timestamp form a ready set; the installed Picker (FIFO
// when none) chooses which fires next. Events scheduled for the current
// instant while it is being processed join the ready set and are eligible
// for the very next pick, so a fuzzing Picker can reorder them ahead of
// older same-instant work.
//
// # Limit semantics
//
// When events remain beyond limit, the end-of-instant flushers run once
// for the last executed instant, and only then does the clock park at
// limit — so cross-instant observables are consistent as of that last
// instant, and no flusher (nor any event) runs at the limit instant
// itself. Observables that accrue continuously between events (the
// fabric's transferred-byte counters) are therefore stale by up to
// limit − lastEvent; readers sampling at the limit must force their own
// sync (netsim.Fabric.Sync). When the queue instead drains before limit,
// the clock stops at the last executed event, not at limit.
//
// If a process panics, RunUntil terminates every other live process (their
// deferred calls run) and re-panics the original value, so a recovered
// simulation leaves no goroutines behind.
func (s *Scheduler) RunUntil(limit Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.killAll()
			panic(r)
		}
	}()
	for {
		if len(s.heap) == 0 && s.readyLen() == 0 {
			// The queue drained: a final end-of-instant flush may reveal
			// more work (a coalesced fabric arming its completion timer),
			// in which case the run continues.
			if !s.runInstantEnd() {
				break
			}
			continue
		}
		if s.readyLen() == 0 {
			// The instant is fully consumed; reclaim the ready set's
			// backing before advancing the clock to the next pending
			// event.
			s.readySet = s.readySet[:0]
			s.readyHead, s.committed = 0, 0
			idx := s.heap[0]
			ev := &s.arena[idx]
			if ev.canceled {
				s.heapPopHead()
				ev.inHeap = false
				s.heapDead--
				s.recycleEvent(idx)
				continue
			}
			// The clock is about to move: let end-of-instant flushers
			// finish the current instant first. They may enqueue new
			// events (even earlier than the current head, e.g. a fabric
			// arming a nearer completion timer), so re-evaluate the
			// queue when they do.
			if ev.at > s.now && s.runInstantEnd() {
				continue
			}
			if ev.at > limit {
				s.now = limit
				return nil
			}
			if ev.at > s.now {
				s.now = ev.at
			}
			// Pull everything scheduled for this instant out of the heap.
			// Pops arrive in seq order, so appending preserves pick order.
			for len(s.heap) > 0 {
				idx := s.heap[0]
				ev := &s.arena[idx]
				if ev.at > s.now {
					break
				}
				s.heapPopHead()
				ev.inHeap = false
				if ev.canceled {
					s.heapDead--
					s.recycleEvent(idx)
					continue
				}
				s.readySet = append(s.readySet, idx)
			}
			s.committed = len(s.readySet)
		} else {
			s.commitReady()
		}
		// Reclaim the consumed prefix once it dominates the backing array,
		// so a long same-instant cascade cannot grow the ready set without
		// bound. Pure memory motion: pick order is unaffected.
		if s.readyHead > 64 && s.readyHead*2 > len(s.readySet) {
			n := copy(s.readySet, s.readySet[s.readyHead:])
			s.readySet = s.readySet[:n]
			s.committed -= s.readyHead
			s.readyHead = 0
		}
		n := s.readyLen()
		if n == 0 {
			continue
		}
		pos := s.readyHead
		if s.picker != nil && n > 1 {
			if i := s.picker.Pick(n); i > 0 && i < n {
				pos += i
			}
		}
		idx := s.readySet[pos]
		// Remove by shifting the (usually empty) prefix right and
		// advancing the head: FIFO picks cost O(1) instead of shifting
		// the whole tail left.
		copy(s.readySet[s.readyHead+1:pos+1], s.readySet[s.readyHead:pos])
		s.readyHead++
		ev := &s.arena[idx]
		if ev.canceled {
			// Canceled after entering the ready set (a Timer stopped by
			// an earlier same-instant event).
			s.recycleEvent(idx)
			continue
		}
		// Snapshot and recycle before firing: the callback may allocate
		// new events into this very slot.
		seq, kind, fn, h, proc, arg, reason := ev.seq, ev.kind, ev.fn, ev.h, ev.proc, ev.arg, ev.reason
		s.recycleEvent(idx)
		s.committed = len(s.readySet)
		if s.observer != nil {
			s.observer(s.now, seq)
		}
		switch kind {
		case evDispatch:
			s.dispatch(proc)
		case evWake:
			s.ready(proc, arg, reason)
		case evCall:
			h.Fire(arg)
		default:
			fn()
		}
		if s.panicked != nil {
			panic(s.panicked)
		}
	}
	var stuck []string
	for _, p := range s.parked {
		if !p.daemon {
			stuck = append(stuck, p.name)
		}
	}
	if len(stuck) > 0 {
		slices.Sort(stuck)
		return &DeadlockError{Now: s.now, Parked: stuck}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Termination

// Shutdown terminates every live process and discards all pending events.
// Parked processes are unwound — their deferred calls run — and processes
// never yet dispatched are released without running their body. Call it
// when abandoning a simulation mid-flight (a deadlocked or failed run in a
// long-lived sweep) so no goroutines outlive the scheduler. Outstanding
// Timer handles stay inert. The scheduler must not be used afterwards
// beyond reads; Run on a shut-down scheduler returns immediately.
func (s *Scheduler) Shutdown() {
	s.killAll()
	for _, idx := range s.heap {
		s.arena[idx].inHeap = false
		s.recycleEvent(idx)
	}
	s.heap = s.heap[:0]
	s.heapDead = 0
	for _, idx := range s.readySet[s.readyHead:] {
		s.recycleEvent(idx)
	}
	s.readySet = s.readySet[:0]
	s.readyHead, s.committed = 0, 0
}

// killAll unwinds every live process, lowest id first, until none remain
// (a deferred call may spawn or wake others; the sweep repeats until the
// population is empty). Runs in scheduler context only.
func (s *Scheduler) killAll() {
	for len(s.liveProcs) > 0 {
		victim := s.liveProcs[0]
		for _, p := range s.liveProcs[1:] {
			if p.id < victim.id {
				victim = p
			}
		}
		victim.killed = true
		if victim.state == procParked {
			s.dropParked(victim)
		}
		victim.resume <- struct{}{}
		<-s.yield
	}
}
