package chaos

import "testing"

// The corpus pins seeds that once exposed real bugs. Each entry names
// the bug it caught; the seeds must stay green forever (or, for the
// weakened-protocol entries, stay red) so a regression reintroducing
// the bug fails with the exact reproducer attached.

// Seeds that deadlocked the reconfig-storm scenario before the control
// ring's AllGather was made robust to same-instant delivery permutation:
// round-indexed forwarding propagated unfilled slots when a rank popped
// two queued messages in one instant and the fuzzer permuted the
// resulting forwards, so peers computed different maxSeq values and
// wedged in waitCollIdle.
var controlRingReorderSeeds = []uint64{0x14, 0x15, 0x1a, 0x25, 0x28, 0x2c, 0x3b, 0x61}

func TestCorpusControlRingReorder(t *testing.T) {
	sc := ReconfigStorm()
	for _, seed := range controlRingReorderSeeds {
		res := Run(sc, seed, Opts{})
		if res.Failed() {
			t.Errorf("regression (control-ring reorder): %v", res)
		}
	}
}

// Seeds that corrupted AllReduce results in the straggler scenario
// before transport connections re-sequenced deliveries: sub-nanosecond
// transmit times put multiple completion events at the same virtual
// instant, the fuzzer permuted them, and slices arrived out of FIFO
// order ("slice size mismatch" panics / wrong elements).
var transportReorderSeeds = []uint64{0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8}

func TestCorpusTransportReorder(t *testing.T) {
	sc := Straggler()
	for _, seed := range transportReorderSeeds {
		res := Run(sc, seed, Opts{})
		if res.Failed() {
			t.Errorf("regression (transport reorder): %v", res)
		}
	}
}

// Seeds known to detect the weakened protocol (sequence-number barrier
// skipped). These must keep failing: if one goes green, the harness has
// lost the sensitivity that makes its passes meaningful.
var weakenedDetectionSeeds = []uint64{0x1, 0xc, 0x13}

func TestCorpusWeakenedDetection(t *testing.T) {
	sc := ReconfigStorm().Weakened()
	for _, seed := range weakenedDetectionSeeds {
		res := Run(sc, seed, Opts{})
		if !res.Failed() {
			t.Errorf("seed 0x%x no longer detects the weakened protocol", seed)
		}
	}
}
