package sim

// Tests for the pooled event arena: Timer edge cases under slot recycling,
// the exact Picker visibility of canceled same-instant events (the
// semantics the chaos corpus depends on), RunUntil's limit behavior, and
// the zero-allocation guarantee of the pooled timer and wake paths.

import (
	"runtime"
	"testing"
	"time"
)

func TestTimerStopAfterFire(t *testing.T) {
	s := New()
	fired := 0
	tm := s.After(time.Millisecond, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Stop() {
		t.Fatal("Stop returned true after the timer fired")
	}
}

func TestTimerDoubleStop(t *testing.T) {
	s := New()
	tm := s.After(time.Millisecond, func() { t.Error("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	// The doubly-stopped slot must be recycled exactly once: later timers
	// must still fire normally.
	fired := false
	s.After(2*time.Millisecond, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer scheduled after double-stop never fired")
	}
}

// TestTimerStopRecycledSlot pins the generation-counter guarantee: a stale
// handle to a slot that has been recycled into a new event must be inert —
// it must neither cancel the new occupant nor report success.
func TestTimerStopRecycledSlot(t *testing.T) {
	s := New()
	stale := s.After(time.Millisecond, func() {})
	if err := s.Run(); err != nil { // fires; the slot returns to the free list
		t.Fatal(err)
	}
	fired := false
	fresh := s.After(time.Millisecond, func() { fired = true })
	if fresh.idx != stale.idx {
		t.Fatalf("test premise broken: fresh timer got slot %d, want recycled slot %d", fresh.idx, stale.idx)
	}
	if stale.Stop() {
		t.Fatal("stale handle reported stopping a recycled slot")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("stale Stop canceled the slot's new occupant")
	}
}

func TestZeroTimerStop(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero Timer Stop returned true")
	}
}

type recordingPicker struct{ ns []int }

func (r *recordingPicker) Pick(n int) int {
	r.ns = append(r.ns, n)
	return 0
}

// TestPickerVisibilityOfCanceledEvents pins the two cancelation
// visibility rules the chaos corpus depends on (the Picker's PRNG
// consumption is a function of the n it sees at every pick):
//
//  1. an event canceled AFTER entering the ready set remains a pick
//     candidate (and is skipped when drawn), and
//  2. an event scheduled and canceled within the same turn never
//     becomes a candidate at all.
func TestPickerVisibilityOfCanceledEvents(t *testing.T) {
	// Rule 1: three events share an instant; the first cancels the second.
	s := New()
	pk := &recordingPicker{}
	s.SetPicker(pk)
	var tm Timer
	s.At(Time(time.Millisecond), func() {
		if !tm.Stop() {
			t.Error("Stop returned false for a ready-set-resident timer")
		}
	})
	tm = s.At(Time(time.Millisecond), func() { t.Error("canceled timer fired") })
	s.At(Time(time.Millisecond), func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pk.ns) != 2 || pk.ns[0] != 3 || pk.ns[1] != 2 {
		t.Fatalf("picker saw %v, want [3 2]: a ready-set-resident canceled event must stay a candidate", pk.ns)
	}

	// Rule 2: the first event schedules a same-instant timer, cancels it
	// in the same turn, and schedules a survivor; only the survivor may
	// become a candidate.
	s2 := New()
	pk2 := &recordingPicker{}
	s2.SetPicker(pk2)
	survivor := false
	s2.At(Time(time.Millisecond), func() {
		doomed := s2.At(s2.Now(), func() { t.Error("same-turn-canceled timer fired") })
		s2.At(s2.Now(), func() { survivor = true })
		doomed.Stop()
	})
	s2.At(Time(time.Millisecond), func() {})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if !survivor {
		t.Fatal("surviving same-instant event never fired")
	}
	if len(pk2.ns) != 2 || pk2.ns[0] != 2 || pk2.ns[1] != 2 {
		t.Fatalf("picker saw %v, want [2 2]: a same-turn-canceled event must never become a candidate", pk2.ns)
	}
}

// TestRunUntilLimitFlushSemantics pins the contract documented on
// RunUntil: when events remain beyond the limit, the end-of-instant
// flushers run once for the LAST EXECUTED instant and are NOT re-invoked
// at the limit instant itself. (Continuously-accruing observables are
// therefore stale at the limit; see netsim's staleness regression test
// and Fabric.Sync.)
func TestRunUntilLimitFlushSemantics(t *testing.T) {
	s := New()
	var flushes []Time
	s.OnInstantEnd(func() { flushes = append(flushes, s.Now()) })
	s.At(Time(10*time.Millisecond), func() {})
	s.At(Time(30*time.Millisecond), func() {})
	if err := s.RunUntil(Time(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock parked at %v, want 20ms", s.Now())
	}
	// The flusher runs before every clock advance — at the epoch and at
	// the 10ms instant — but never at the 20ms limit instant.
	want := []Time{0, Time(10 * time.Millisecond)}
	if len(flushes) != len(want) || flushes[0] != want[0] || flushes[1] != want[1] {
		t.Fatalf("flusher ran at %v, want %v: once per executed instant, never at the limit", flushes, want)
	}
	// Resuming flushes the parked instant before advancing (20ms), then
	// the final event's instant when the queue drains (30ms).
	flushes = nil
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want = []Time{Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	if len(flushes) != len(want) || flushes[0] != want[0] || flushes[1] != want[1] {
		t.Fatalf("post-resume flushes %v, want %v", flushes, want)
	}
}

// settleGoroutines waits for the runtime goroutine count to return to the
// baseline, failing the test if it does not within the deadline.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), base)
}

// TestShutdownReleasesParkedProcs: a deadlocked simulation leaves its
// processes parked (so the caller can inspect or even resolve the
// deadlock); Shutdown must unwind them all — running their deferred
// calls — and release processes that were never dispatched without
// running their bodies.
func TestShutdownReleasesParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	q := NewQueue[int]()
	cleaned := 0
	for i := 0; i < 4; i++ {
		s.Go("stuck", func(p *Proc) {
			defer func() { cleaned++ }()
			q.Pop(p)
		})
	}
	if _, ok := s.Run().(*DeadlockError); !ok {
		t.Fatal("expected DeadlockError")
	}
	// A process spawned after the run, never dispatched: its body must not
	// execute.
	s.Go("undispatched", func(p *Proc) { t.Error("undispatched process body ran") })
	s.Shutdown()
	settleGoroutines(t, base)
	if cleaned != 4 {
		t.Fatalf("deferred calls ran in %d of 4 killed processes", cleaned)
	}
}

// TestNoGoroutineLeakAfterPanic: when a process panics, RunUntil must
// terminate every other live process before re-panicking, so a recovered
// simulation leaves no goroutines parked forever.
func TestNoGoroutineLeakAfterPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		s := New()
		q := NewQueue[int]()
		for i := 0; i < 8; i++ {
			s.Go("parked", func(p *Proc) { q.Pop(p) })
		}
		s.Go("bomb", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic("boom")
		})
		_ = s.Run()
	}()
	settleGoroutines(t, base)
}

// recordingHandler logs the arguments it is fired with, with the time.
type recordingHandler struct {
	s    *Scheduler
	args []uint64
	at   []Time
}

func (h *recordingHandler) Fire(arg uint64) {
	h.args = append(h.args, arg)
	h.at = append(h.at, h.s.Now())
}

// TestCallAtFiresHandler pins the handler event: CallAt/CallAfter fire
// h.Fire(arg) at the requested time, interleave with At callbacks in
// scheduling order, clamp past times to now, and are cancelable like any
// Timer.
func TestCallAtFiresHandler(t *testing.T) {
	s := New()
	h := &recordingHandler{s: s}
	s.After(time.Millisecond, func() { h.Fire(1) })
	s.CallAfter(time.Millisecond, h, 2)
	s.CallAt(Time(time.Millisecond), h, 3)
	s.CallAt(-5, h, 4) // in the past: fires now
	s.CallAfter(time.Millisecond, h, 5).Stop()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	wantArgs := []uint64{4, 1, 2, 3}
	wantAt := []Time{0, Time(time.Millisecond), Time(time.Millisecond), Time(time.Millisecond)}
	if len(h.args) != len(wantArgs) {
		t.Fatalf("fired %v, want %v", h.args, wantArgs)
	}
	for i := range wantArgs {
		if h.args[i] != wantArgs[i] || h.at[i] != wantAt[i] {
			t.Errorf("firing %d: arg %d at %v, want arg %d at %v", i, h.args[i], h.at[i], wantArgs[i], wantAt[i])
		}
	}
}

// TestHotPathsDoNotAllocate asserts the pooled paths are allocation-free
// in steady state: timer churn (arm, cancel, fire, recycle), handler
// events, and the Sleep/wake/dispatch cycle.
func TestHotPathsDoNotAllocate(t *testing.T) {
	// Timer churn: two arms, one cancel, one fire per step.
	s := New()
	fn := func() {}
	timerStep := func() {
		doomed := s.After(time.Microsecond, fn)
		s.After(time.Microsecond, fn)
		doomed.Stop()
		if err := s.RunUntil(s.Now().Add(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		timerStep() // reach steady state: arena, heap and free list sized
	}
	if n := testing.AllocsPerRun(500, timerStep); n != 0 {
		t.Errorf("timer path allocates %v per op, want 0", n)
	}

	// Handler path: the same churn through CallAfter.
	var h nopHandler
	callStep := func() {
		doomed := s.CallAfter(time.Microsecond, h, 1)
		s.CallAfter(time.Microsecond, h, 2)
		doomed.Stop()
		if err := s.RunUntil(s.Now().Add(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		callStep()
	}
	if n := testing.AllocsPerRun(500, callStep); n != 0 {
		t.Errorf("handler path allocates %v per op, want 0", n)
	}

	// Wake path: a daemon sleeping in a loop; each step is one wake, one
	// dispatch, one park.
	s2 := New()
	s2.GoDaemon("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	wakeStep := func() {
		if err := s2.RunUntil(s2.Now().Add(time.Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		wakeStep()
	}
	if n := testing.AllocsPerRun(500, wakeStep); n != 0 {
		t.Errorf("wake path allocates %v per op, want 0", n)
	}
}

// nopHandler is a Handler that does nothing; a zero-size value stored in
// an interface needs no allocation.
type nopHandler struct{}

func (nopHandler) Fire(uint64) {}
