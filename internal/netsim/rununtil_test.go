package netsim

import (
	"testing"
	"time"

	"mccs/internal/sim"
)

// TestRunUntilLimitTransferredStaleness pins the documented staleness of
// continuously-accruing observables when RunUntil parks at its limit: the
// fabric's byte counters are current as of the last executed instant, not
// the limit instant (no event fires there, and flush() is a no-op when
// nothing is dirty), and Fabric.Sync is the remedy.
func TestRunUntilLimitTransferredStaleness(t *testing.T) {
	s := sim.New()
	n, a, _, c := lineNet(100*gbps, 100*gbps)
	fb := NewFabric(s, n)
	var fl Flow
	done := false
	s.Go("app", func(p *sim.Proc) {
		fl = fb.StartFlow(FlowOpts{Src: a, Dst: c, Bytes: 125e6}) // 12.5 GB/s -> 10 ms
		fl.Done().Wait(p)
		done = true
	})
	if err := s.RunUntil(sim.Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != sim.Time(5*time.Millisecond) {
		t.Fatalf("clock parked at %v, want 5ms", s.Now())
	}
	// Stale by design: the last event (and end-of-instant flush) was the
	// flow start at t=0; nothing has advanced the byte counters since.
	if got := fl.Transferred(); got != 0 {
		t.Fatalf("Transferred = %g before Sync, want 0 (stale as of the last executed instant)", got)
	}
	// Sync advances the counters to the parked clock: 5 ms at 12.5 GB/s.
	fb.Sync()
	if got := fl.Transferred(); !almostEq(got, 62.5e6, 1) {
		t.Fatalf("Transferred = %g after Sync, want 62.5e6", got)
	}
	// The mid-run sync must not perturb completion.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done || !fl.Finished() {
		t.Fatal("flow did not complete after resuming")
	}
	if want := sim.Time(10 * time.Millisecond); s.Now() != want {
		t.Fatalf("completed at %v, want %v", s.Now(), want)
	}
}
