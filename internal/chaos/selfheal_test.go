package chaos

import (
	"bytes"
	"testing"
	"time"

	"mccs/internal/remediation"
	"mccs/internal/sim"
)

// healWindow is one merged injected-fault window on a link: overlapping
// same-link flaps nest into a single degradation episode (the injector
// restores on the last expiry), so they must score as one episode.
type healWindow struct {
	link       int32
	start, end sim.Time
}

// mergeFaultWindows folds the run's link-flap records into per-link
// non-overlapping windows, in first-start order.
func mergeFaultWindows(faults []FaultRecord) []healWindow {
	var wins []healWindow
	for _, f := range faults {
		if f.Kind != "link-flap" {
			continue
		}
		merged := false
		for i := range wins {
			w := &wins[i]
			if w.link == f.Link && f.Start <= w.end && f.End >= w.start {
				if f.Start < w.start {
					w.start = f.Start
				}
				if f.End > w.end {
					w.end = f.End
				}
				merged = true
				break
			}
		}
		if !merged {
			wins = append(wins, healWindow{link: f.Link, start: f.Start, end: f.End})
		}
	}
	return wins
}

// healObservable reports whether the control loop is guaranteed to see
// the window: the degradation must span enough ticks to walk healthy →
// suspect → quarantined. Shorter blips may still be caught (tick phase
// permitting) — they count for precision but are not required for
// recall.
func healObservable(w healWindow, cfg remediation.Config) bool {
	need := time.Duration(cfg.SuspectAfter+2) * cfg.Interval
	return w.end.Sub(w.start) >= need
}

// TestSelfHealGroundTruth is the closed-loop acceptance check: on the
// self-heal scenario every observable injected link fault must be
// quarantined exactly once, recovered (re-admitted) within the run, and
// every quarantine must correspond to an injected fault — remediation
// precision = recall = 1.0 — with the median time-to-recover bounded in
// virtual time.
func TestSelfHealGroundTruth(t *testing.T) {
	cfg := remediation.DefaultConfig()
	sc := SelfHeal()
	var ttrs []sim.Duration
	observable, recovered := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		hr := RunSeedHealed(sc, seed)
		if hr.Err != nil {
			t.Fatalf("seed %d: %v", seed, hr.Err)
		}
		wins := mergeFaultWindows(hr.Faults)
		if len(wins) == 0 {
			t.Fatalf("seed %d: no fault windows", seed)
		}

		// Precision: every quarantine and every recovery action lies
		// inside an injected fault window, modulo a few detection ticks
		// (actions can only fire while the link is still quarantined,
		// i.e. at most one tick past restore plus an in-flight tuner
		// pass). Readmits are excluded: probation legitimately completes
		// after the window ends, and the recall loop validates them.
		slack := sim.Duration(time.Duration(cfg.SuspectAfter+3) * cfg.Interval)
		match := func(link int32, at sim.Time) *healWindow {
			for i := range wins {
				w := &wins[i]
				if w.link == link && at >= w.start && at.Sub(w.end) <= slack {
					return w
				}
			}
			return nil
		}
		quarantines := make(map[*healWindow]int)
		for _, a := range hr.Remediation.Actions {
			if a.Link < 0 || a.Action == "readmit" {
				continue
			}
			w := match(a.Link, a.At)
			if w == nil {
				t.Errorf("seed %d: %s on link %d at %v matches no injected fault (precision < 1)",
					seed, a.Action, a.Link, a.At.Sub(0))
				continue
			}
			if a.Action == "quarantine" {
				quarantines[w]++
			}
		}

		// Recall: every observable window maps to exactly one quarantine
		// episode, and that episode completes with a re-admission.
		for i := range wins {
			w := &wins[i]
			if !healObservable(*w, cfg) {
				continue
			}
			observable++
			if n := quarantines[w]; n != 1 {
				t.Errorf("seed %d: link %d window [%v,%v] has %d quarantines, want exactly 1",
					seed, w.link, w.start.Sub(0), w.end.Sub(0), n)
				continue
			}
			readmitted := false
			for _, a := range hr.Remediation.Actions {
				if a.Action == "readmit" && a.Link == w.link && a.At >= w.end {
					readmitted = true
					ttrs = append(ttrs, a.Recovered.Sub(a.Detected))
					break
				}
			}
			if !readmitted {
				t.Errorf("seed %d: link %d never re-admitted after window ending %v",
					seed, w.link, w.end.Sub(0))
				continue
			}
			recovered++
		}
	}
	if observable == 0 {
		t.Fatal("no observable fault windows across the sweep; scenario is vacuous")
	}
	if recovered != observable {
		t.Fatalf("recovered %d of %d observable faults (recall < 1)", recovered, observable)
	}
	// Median time-to-recover bounded in virtual time: detection within
	// a few ticks, probation a few more, plus the longest fault window.
	for i := 1; i < len(ttrs); i++ {
		for j := i; j > 0 && ttrs[j] < ttrs[j-1]; j-- {
			ttrs[j], ttrs[j-1] = ttrs[j-1], ttrs[j]
		}
	}
	median := ttrs[len(ttrs)/2]
	if budget := sim.Duration(sc.Horizon / 2); median > budget {
		t.Fatalf("median time-to-recover %v exceeds virtual-time budget %v", median, budget)
	}
	t.Logf("self-heal: %d observable faults, all recovered; median TTR %v over %d episodes",
		observable, median, len(ttrs))
}

// TestSelfHealDoctorTTR checks the doctor side of the loop: on a run
// with remediation attached, congested-link incidents carry a
// time-to-recover matched from the remediation spans.
func TestSelfHealDoctorTTR(t *testing.T) {
	found := false
	for seed := uint64(1); seed <= 8 && !found; seed++ {
		hr := RunSeedHealed(SelfHeal(), seed)
		if hr.Err != nil {
			t.Fatalf("seed %d: %v", seed, hr.Err)
		}
		for i := range hr.Doctor.Incidents {
			in := &hr.Doctor.Incidents[i]
			if in.Link < 0 {
				continue
			}
			if ttr, ok := in.TimeToRecover(); ok {
				if ttr <= 0 {
					t.Errorf("seed %d: incident %d has non-positive TTR %v", seed, in.ID, ttr)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no link incident carried a time-to-recover across the sweep")
	}
}

// TestSelfHealByteDeterministic re-runs seeds and requires the trace
// hash, the remediation reports (JSONL and text) and the telemetry
// export to be byte-identical — the same determinism bar the doctor
// reports meet.
func TestSelfHealByteDeterministic(t *testing.T) {
	sc := SelfHeal()
	for seed := uint64(1); seed <= 3; seed++ {
		a := RunSeedHealed(sc, seed)
		b := RunSeedHealed(sc, seed)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("seed %d: errs %v / %v", seed, a.Err, b.Err)
		}
		if a.TraceHash != b.TraceHash {
			t.Fatalf("seed %d: trace hash diverged: %#x vs %#x", seed, a.TraceHash, b.TraceHash)
		}
		var aj, bj, at, bt bytes.Buffer
		if err := a.Remediation.WriteJSONL(&aj); err != nil {
			t.Fatal(err)
		}
		if err := b.Remediation.WriteJSONL(&bj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj.Bytes(), bj.Bytes()) {
			t.Fatalf("seed %d: remediation JSONL diverged", seed)
		}
		if err := a.Remediation.WriteText(&at); err != nil {
			t.Fatal(err)
		}
		if err := b.Remediation.WriteText(&bt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(at.Bytes(), bt.Bytes()) {
			t.Fatalf("seed %d: remediation text report diverged", seed)
		}
		if len(a.Telemetry) == 0 {
			t.Fatalf("seed %d: empty telemetry export", seed)
		}
		if !bytes.Equal(a.Telemetry, b.Telemetry) {
			t.Fatalf("seed %d: telemetry export diverged", seed)
		}
	}
}

// TestSelfHealFlappingBackoff injects a dense burst of short flaps on
// whatever links the heal stream picks and shrinks the backoff budget:
// no per-link episode may exceed MaxActions recovery actions, and the
// engine must report the suppressed opportunities instead of acting on
// them.
func TestSelfHealFlappingBackoff(t *testing.T) {
	sc := SelfHeal()
	sc.Name = "self-heal-flap"
	sc.LinkFlaps = 10 // dense: repeated windows on few links
	cfg := remediation.DefaultConfig()
	cfg.MaxActions = 2
	cfg.BackoffMax = 2 * time.Millisecond
	sawSuppression := false
	for seed := uint64(1); seed <= 6; seed++ {
		hr := Run(sc, seed, Opts{Heal: true, HealConfig: cfg})
		if hr.Err != nil {
			t.Fatalf("seed %d: %v", seed, hr.Err)
		}
		// Count recovery actions per episode: episodes are delimited by
		// quarantine/readmit transitions on the link.
		perEpisode := make(map[int32]int)
		for _, a := range hr.Remediation.Actions {
			switch a.Action {
			case "quarantine", "readmit":
				perEpisode[a.Link] = 0
			default:
				if a.Link < 0 {
					continue
				}
				perEpisode[a.Link]++
				if perEpisode[a.Link] > cfg.MaxActions {
					t.Errorf("seed %d: link %d episode exceeded %d actions",
						seed, a.Link, cfg.MaxActions)
				}
			}
		}
		if hr.Remediation.Suppressed > 0 {
			sawSuppression = true
		}
	}
	if !sawSuppression {
		t.Log("note: no suppression triggered across the sweep (backoff alone absorbed the flapping)")
	}
}

// TestSelfHealReplayDeterminism is the inject-heal-inject determinism
// check for the fault-injection path: with exact pre-fault snapshot
// restores (netsim.LinkState) and back-to-back injections landing on
// the same links, replaying a seed must reproduce the identical event
// trace.
func TestSelfHealReplayDeterminism(t *testing.T) {
	sc := SelfHeal()
	sc.Name = "self-heal-dense"
	sc.LinkFlaps = 12 // force same-link back-to-back and nested windows
	for seed := uint64(1); seed <= 4; seed++ {
		a := RunSeedHealed(sc, seed)
		b := RunSeedHealed(sc, seed)
		if a.Err != nil {
			t.Fatalf("seed %d: %v", seed, a.Err)
		}
		if a.TraceHash != b.TraceHash || a.Events != b.Events {
			t.Fatalf("seed %d: replay diverged: %#x/%d vs %#x/%d",
				seed, a.TraceHash, a.Events, b.TraceHash, b.Events)
		}
	}
}
