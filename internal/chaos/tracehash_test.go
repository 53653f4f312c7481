package chaos

import "testing"

// Pinned (at, seq) trace hashes — one seed per scenario, captured from
// the container/heap scheduler core before the pooled-arena overhaul
// (PR 8) and reproduced byte-for-byte by it. The trace hash digests the
// complete event schedule INCLUDING the fuzzer's PRNG consumption (each
// Pick(n) call advances the stream by an amount depending on n), so this
// test trips on any change to event ordering, ready-set membership
// visibility, or picker call sites — exactly the failure modes that
// would silently invalidate the whole corpus.
//
// If a change is deliberately schedule-altering, re-pin these hashes
// together with the root schedule-fingerprint golden and re-validate the
// corpus seeds, explaining why in CHANGES.md.
var pinnedTraceHashes = []struct {
	scenario string
	seed     uint64
	hash     uint64
	events   int
}{
	{"link-flap", 1, 0xa3f01030dc7d980e, 867},
	{"straggler", 1, 0x4b2662508122a3f0, 7258},
	{"reconfig-storm", 1, 0xdc6946ee784371ed, 1825},
	{"autotune-churn", 1, 0xf1dd6f11e0666f87, 7109},
	{"orchestrator-churn", 1, 0xc1504fe473f962ce, 2180},
}

func TestCorpusTraceHashPinned(t *testing.T) {
	byName := map[string]Scenario{}
	for _, sc := range Scenarios() {
		byName[sc.Name] = sc
	}
	for _, pin := range pinnedTraceHashes {
		sc, ok := byName[pin.scenario]
		if !ok {
			t.Errorf("pinned scenario %q no longer exists", pin.scenario)
			continue
		}
		res := Run(sc, pin.seed, Opts{})
		if res.Failed() {
			t.Errorf("%s seed %d failed: %v", pin.scenario, pin.seed, res)
			continue
		}
		if res.TraceHash != pin.hash || res.Events != pin.events {
			t.Errorf("%s seed %d: hash=%#x events=%d, want hash=%#x events=%d — the schedule is no longer byte-identical",
				pin.scenario, pin.seed, res.TraceHash, res.Events, pin.hash, pin.events)
		}
	}
}

// TestSelfHealTraceHashPinned pins the closed-loop schedule: one
// self-heal seed, with the remediation engine acting on link flaps and
// the doctor's verdicts. The corpus pins above exercise the engine only
// against external congestion, so without this a change to the link
// scan could move every self-heal result unnoticed.
func TestSelfHealTraceHashPinned(t *testing.T) {
	const wantHash, wantEvents = 0xd1bc59a66e92846a, 2332
	hr := RunSeedHealed(SelfHeal(), 1)
	if hr.Err != nil {
		t.Fatalf("self-heal seed 1 failed: %v", hr.Err)
	}
	if hr.TraceHash != wantHash || hr.Events != wantEvents {
		t.Errorf("self-heal seed 1: hash=%#x events=%d, want hash=%#x events=%d — the healed schedule is no longer byte-identical",
			hr.TraceHash, hr.Events, uint64(wantHash), wantEvents)
	}
}
