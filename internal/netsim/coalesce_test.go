package netsim

import (
	"testing"
	"time"

	"mccs/internal/sim"
)

// TestBatchedStartsOneRecompute asserts the coalescing contract: a batch
// of K flow starts at one virtual instant triggers exactly one max-min
// allocation, not K.
func TestBatchedStartsOneRecompute(t *testing.T) {
	s := sim.New()
	net, nics := benchClos(2)
	fb := NewFabric(s, net)
	var flows []Flow
	s.Go("batch", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			flows = append(flows, fb.StartFlow(FlowOpts{
				Src: nics[i], Dst: nics[(i+7)%len(nics)], Bytes: 1e9, Label: uint64(i),
			}))
		}
		if fb.Recomputes != 0 {
			t.Errorf("recomputes during batch = %d, want 0 (coalesced)", fb.Recomputes)
		}
		// First read flushes the whole batch with a single allocation.
		if flows[0].Rate() <= 0 {
			t.Error("flow has no rate after flush")
		}
		if fb.Recomputes != 1 {
			t.Errorf("recomputes after batched starts = %d, want exactly 1", fb.Recomputes)
		}
		// Reading again, same instant, does not reallocate.
		for _, fl := range flows {
			_ = fl.Rate()
		}
		if fb.Recomputes != 1 {
			t.Errorf("recomputes after re-reads = %d, want still 1", fb.Recomputes)
		}
		// A batch of cancels also coalesces to one allocation.
		for _, fl := range flows[:8] {
			fb.CancelFlow(fl)
		}
		if fb.LinkRate(0) < 0 { // forces flush
			t.Error("negative link rate")
		}
		if fb.Recomputes != 2 {
			t.Errorf("recomputes after batched cancels = %d, want 2", fb.Recomputes)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEndOfInstantFlush asserts that a dirty fabric is flushed before
// virtual time advances even when nothing reads a rate: the batch still
// costs one allocation, the completion timer is armed, and the flows
// finish at the time their post-batch fair share dictates.
func TestEndOfInstantFlush(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	var f1, f2 Flow
	var doneAt sim.Time
	s.Go("app", func(p *sim.Proc) {
		// 125 MB each, sharing 12.5 GB/s: both complete at 20 ms. No
		// rate is read before the sleep, so only the end-of-instant hook
		// can arm the completion timer.
		f1 = fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 125e6})
		f2 = fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 125e6})
		f1.Done().Wait(p)
		f2.Done().Wait(p)
		doneAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fb.Recomputes != 2 {
		// One flush for the start batch, one for the completion batch.
		t.Errorf("recomputes = %d, want 2 (start batch + completion batch)", fb.Recomputes)
	}
	want := sim.Time(20 * time.Millisecond)
	if d := doneAt.Sub(want); d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("completion at %v, want ~%v", doneAt, want)
	}
}

// TestSetLinkCapacityCoalesces asserts capacity changes join the same
// mutation batch as flow starts within an instant.
func TestSetLinkCapacityCoalesces(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	s.Go("app", func(p *sim.Proc) {
		fl := fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 1e12})
		fb.SetLinkCapacity(LinkID(0), 10*gbps)
		fb.SetLinkCapacity(LinkID(0), 40*gbps)
		if got := fl.Rate(); !almostEq(got, 40*gbps, 1) {
			t.Errorf("rate = %g, want %g", got, 40*gbps)
		}
		if fb.Recomputes != 1 {
			t.Errorf("recomputes = %d, want 1 for start+2 capacity changes", fb.Recomputes)
		}
		fb.CancelFlow(fl)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocateSteadyStateAllocs guards the allocation-free water-fill:
// once scratch buffers have grown, a recompute — including re-arming the
// completion timer — allocates nothing, independent of flow count.
func TestAllocateSteadyStateAllocs(t *testing.T) {
	s := sim.New()
	net, nics := benchClos(4)
	fb := NewFabric(s, net)
	s.Go("setup", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			fb.StartFlow(FlowOpts{Src: nics[i%len(nics)], Dst: nics[(i+11)%len(nics)], Bytes: 1e15, Label: uint64(i)})
		}
	})
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fb.recompute() // size the event arena and heap for the re-armed timers
	}
	allocs := testing.AllocsPerRun(50, func() {
		fb.recompute()
	})
	if allocs != 0 {
		t.Errorf("allocs per recompute = %v, want 0 (scratch and timer callback must be reused)", allocs)
	}
}
