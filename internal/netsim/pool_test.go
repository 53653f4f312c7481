package netsim

// Tests for the pooled flow slots: generation-checked handles stay inert
// once their slot holds a newer flow, and completion handlers fire once.

import (
	"testing"
	"time"

	"mccs/internal/sim"
)

// TestStaleHandleAfterCompletionIsInert lets a flow complete, starts a new
// flow that reuses its pooled slot, and checks that the old handle
// neither reports nor changes the new occupant.
func TestStaleHandleAfterCompletionIsInert(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		old := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 125e6})
		old.Done().Wait(p)
		// Ended but not yet reused: the handle reports the true outcome.
		if !old.Finished() || old.Transferred() != 125e6 || !old.Done().Done() {
			t.Errorf("ended handle: finished=%v transferred=%v", old.Finished(), old.Transferred())
		}
		fresh := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 125e6})
		if fresh.f != old.f {
			t.Fatal("the new flow did not reuse the ended flow's slot")
		}
		if old.Finished() || old.Rate() != 0 || old.Transferred() != 0 {
			t.Error("stale handle reports state")
		}
		if old.Done() == fresh.Done() || !old.Done().Done() {
			t.Error("stale Done is not an already-fired event distinct from the new occupant's")
		}
		old.Done().Wait(p) // must not block on the new occupant
		if p.Now() != sim.Time(10*time.Millisecond) {
			t.Errorf("waiting on a stale Done blocked until %v", p.Now())
		}
		fb.CancelFlow(old)
		if fb.ActiveFlows() != 1 || fresh.Rate() != 100*gbps {
			t.Fatalf("stale CancelFlow touched the new occupant: %d active, rate %v", fb.ActiveFlows(), fresh.Rate())
		}
		fresh.Done().Wait(p)
		if !fresh.Finished() || p.Now() != sim.Time(20*time.Millisecond) {
			t.Errorf("new occupant: finished=%v at %v, want true at 20ms", fresh.Finished(), p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleAfterCancelIsInert is the same check for a slot freed by
// CancelFlow: the canceled flow's handle must not cancel, finish, or wait
// on the flow that reuses its slot.
func TestStaleHandleAfterCancelIsInert(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		old := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 125e6})
		p.Sleep(time.Millisecond)
		fb.CancelFlow(old)
		if old.Finished() || old.Done().Done() {
			t.Error("canceled flow reports completion")
		}
		fresh := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 0}) // endless
		if fresh.f != old.f {
			t.Fatal("the new flow did not reuse the canceled flow's slot")
		}
		fb.CancelFlow(old)
		if fb.ActiveFlows() != 1 || fresh.Finished() {
			t.Fatalf("stale CancelFlow touched the new occupant: %d active", fb.ActiveFlows())
		}
		if old.Finished() || old.Done() == fresh.Done() {
			t.Error("stale handle reads the new occupant")
		}
		fb.CancelFlow(fresh)
		if fb.ActiveFlows() != 0 {
			t.Errorf("%d flows active after canceling the occupant", fb.ActiveFlows())
		}
		var zero Flow
		fb.CancelFlow(zero)
		if zero.Finished() {
			t.Error("zero handle reports Finished")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// countingHandler records every completion it is fired for.
type countingHandler struct{ args []uint64 }

func (h *countingHandler) Fire(arg uint64) { h.args = append(h.args, arg) }

// TestOnDoneHandlerFiresOncePerCompletion checks FlowOpts.OnDone: each
// completed flow fires its handler exactly once with its own argument,
// in flow-ID order within a completion batch, and canceled flows never
// fire.
func TestOnDoneHandlerFiresOncePerCompletion(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	h := &countingHandler{}
	s.Go("app", func(p *sim.Proc) {
		for i := uint64(1); i <= 3; i++ {
			fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e6, Label: i, OnDone: h, DoneArg: 10 + i})
		}
		doomed := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e6, OnDone: h, DoneArg: 99})
		fb.CancelFlow(doomed)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(h.args) != 3 || h.args[0] != 11 || h.args[1] != 12 || h.args[2] != 13 {
		t.Errorf("handler fired with %v, want [11 12 13]", h.args)
	}
}
