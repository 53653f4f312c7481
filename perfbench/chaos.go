package main

import (
	"fmt"
	"slices"
	"time"

	"mccs/internal/chaos"
	"mccs/internal/diagnosis"
	"mccs/internal/sim"
	"mccs/internal/trace"
)

// chaos-selfheal runs seeds of the self-heal chaos scenario with the
// diagnosis and remediation engines attached (chaos.RunSeedHealed),
// back to back in one process. It is the only workload where fault
// injection, diagnosis and remediation run, and it carries checked data
// through the proxy and collective layers. Each seed's world stays
// reachable after its run, as in the chaos tests, so the retained-heap
// and leaked-goroutine metrics show that cost.
var chaosSelfHeal = workload{
	probe:        probe(testbed),
	run:          runChaos,
	replay:       replayChaos,
	instrumented: true,
}

// A pass runs one fresh seed drawn from the benchmark seed, then the
// self-heal seeds 1-7 that the repository's ground-truth test pins.
// Runs are therefore comparable (seeds differ a lot in fault mix and
// transfer sizes), while every run still covers a seed no test chose.
// The count is fixed rather than scaled to --seconds: every seed's world
// stays live (about 90 MB each), so memory, not time, bounds a pass.
const chaosPinnedSeeds = 7

// chaosSeeds maps the benchmark seed to the chaos seeds of one pass.
func chaosSeeds(seed uint64) []uint64 {
	return append([]uint64{1000 + seed}, chaos.Seeds(1, chaosPinnedSeeds)...)
}

func runChaos(seed uint64, _ float64, _ bool) (*phase, error) {
	sc := chaos.SelfHeal()
	ph := &phase{}
	tally := &spanTally{}
	var ttrMs []float64
	var matchedIncidents, incidents, matchedFaults, observable, recovered, attempts int
	for i, s := range chaosSeeds(seed) {
		hr := chaos.RunSeedHealed(sc, s)
		ph.endWorld(sc.Ops)
		ph.attempted++
		ph.events += uint64(hr.Events)
		if hr.Err != nil || hr.Doctor == nil || hr.Remediation == nil {
			ph.fail("seed %d: %v", s, hr.Err)
			ph.add("chaos.invariant_failures", 1)
			continue
		}
		mi, ni, mf, nf := scoreDoctor(hr.Doctor, groundTruth(hr), hr.Recording)
		matchedIncidents += mi
		incidents += ni
		matchedFaults += mf
		observable += nf
		if mi != ni || mf != nf {
			ph.fail("seed %d: diagnosis explained %d/%d incidents and caught %d/%d observable faults", s, mi, ni, mf, nf)
		}
		for _, d := range hr.Remediation.TimesToRecover() {
			ttrMs = append(ttrMs, float64(d)/1e6)
			recovered++
		}
		// Every quarantine and recovery move is an attempt; a
		// re-admission is the useful outcome of an episode.
		attempts += len(hr.Remediation.Actions) - len(hr.Remediation.TimesToRecover())
		for j := range hr.Recording.Spans {
			sp := &hr.Recording.Spans[j]
			tally.add(sp)
			if sp.Kind == trace.KindCmd {
				ph.unitMs = append(ph.unitMs, float64(sp.Dur())/1e6)
				ph.opBytes += float64(sp.Bytes)
				ph.opSecs += sp.Dur().Seconds()
			}
		}
		// RunSeedHealed keeps its sampler, so telemetry.samples stays 0.
		if err := addInstrumentation(ph, hr.Telemetry, 0, hr.Recording.Dropped); err != nil {
			return nil, err
		}
		ph.add("diagnosis.incidents", float64(len(hr.Doctor.Incidents)))
		ph.add("remediation.actions", float64(len(hr.Remediation.RecoveryActions())))
		if i == 0 {
			ph.fingerprint = chaosFingerprint(hr)
			ph.analyze = analyzeRecording(hr.Recording, nil)
		}
	}
	tally.addTo(ph)
	ph.add("chaos.invariant_failures", 0)
	ph.counters["diagnosis.precision"] = ratio(matchedIncidents, incidents)
	ph.counters["diagnosis.recall"] = ratio(matchedFaults, observable)
	ph.counters["remediation.recovered_per_action"] = ratio(recovered, attempts)
	if len(ttrMs) > 0 {
		ph.add("sim_ttr_p50_ms", quantile(ttrMs, 0.5))
	}
	return ph, nil
}

// ratio is num/den, and 1 when there was nothing to score.
func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}

func chaosFingerprint(hr chaos.HealRun) string {
	return fmt.Sprintln(hr.TraceHash, hr.Events, len(hr.Doctor.Incidents), hr.Remediation.TimesToRecover())
}

func replayChaos(seed uint64, _ float64) (string, error) {
	hr := chaos.RunSeedHealed(chaos.SelfHeal(), chaosSeeds(seed)[0])
	if hr.Err != nil {
		return "", hr.Err
	}
	return chaosFingerprint(hr), nil
}

// groundTruth is the run's injected faults plus the remediation
// engine's own episodes: the doctor correctly reports the engine's
// strategy installs as reconfiguration stalls blamed on the controller.
// An episode runs from the link's quarantine until a reconfiguration
// lag after its re-admission, which may restore the strategy.
func groundTruth(hr chaos.HealRun) []chaos.FaultRecord {
	faults := slices.Clone(hr.Faults)
	for _, a := range hr.Remediation.Actions {
		if a.Action != "quarantine" {
			continue
		}
		end := chaos.FaultOpenEnd
		for _, r := range hr.Remediation.Actions {
			if r.Action == "readmit" && r.Link == a.Link && r.At >= a.At {
				end = r.At.Add(reconfigLag)
				break
			}
		}
		faults = append(faults, chaos.FaultRecord{Kind: "remediation", Start: a.At, End: end, Link: a.Link, Rank: -1})
	}
	return faults
}

// reconfigLag is how long after a reconfiguration request its barrier
// may start and still be attributed to it.
const reconfigLag = sim.Duration(1500 * time.Microsecond)

// scoreDoctor scores the diagnosis report against the injected faults:
// an incident is explained when a fault of the matching class, entity
// and time window exists (precision), and a fault is caught when it
// left evidence in the recording and some incident matches it (recall).
// The self-heal scenario injects link flaps, and the remediation engine
// reconfigures in response, so those are the fault kinds whose
// observability is decided here.
func scoreDoctor(rep *diagnosis.Report, faults []chaos.FaultRecord, rec trace.Recording) (explained, incidents, caught, observable int) {
	for i := range rep.Incidents {
		incidents++
		for j := range faults {
			if explains(&faults[j], &rep.Incidents[i]) {
				explained++
				break
			}
		}
	}
	for j := range faults {
		f := &faults[j]
		if !faultObservable(f, rec) {
			continue
		}
		observable++
		for i := range rep.Incidents {
			if explains(f, &rep.Incidents[i]) {
				caught++
				break
			}
		}
	}
	return
}

func overlaps(aStart, aEnd, bStart, bEnd sim.Time) bool { return aStart < bEnd && aEnd > bStart }

func explains(f *chaos.FaultRecord, in *diagnosis.Incident) bool {
	switch in.Class {
	case diagnosis.ClassSlowGPU:
		return f.Kind == "straggler" && f.Rank == in.Rank && overlaps(in.Start, in.End, f.Start, f.End)
	case diagnosis.ClassCongestedLink:
		return f.Kind == "link-flap" && f.Link == in.Link && overlaps(in.Start, in.End, f.Start, f.End)
	case diagnosis.ClassTenantContention:
		return f.Kind == "congestion" && f.Link == in.Link && overlaps(in.Start, in.End, f.Start, f.End)
	case diagnosis.ClassReconfigStall:
		if f.Kind == "remediation" {
			return overlaps(in.Start, in.End, f.Start, f.End)
		}
		return (f.Kind == "reconfig" || f.Kind == "autotune") &&
			in.Start >= f.Start && in.Start <= f.Start.Add(reconfigLag)
	case diagnosis.ClassAdmissionQueueing:
		return f.Kind == "churn"
	default:
		return overlaps(in.Start, in.End, f.Start, f.End)
	}
}

// faultObservable reports whether a fault left evidence a detector can
// see: a flap must rate-limit some flow through the degraded link, and
// a reconfiguration must leave its barrier spans.
func faultObservable(f *chaos.FaultRecord, rec trace.Recording) bool {
	switch f.Kind {
	case "link-flap":
		tol := diagnosis.DefaultConfig().LinkTolerance
		if int(f.Link) >= len(rec.Meta.Links) {
			return false
		}
		nominal := rec.Meta.Links[f.Link].CapBps
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			if sp.Kind != trace.KindFlow {
				continue
			}
			for _, s := range sp.Rates {
				if s.Bottleneck == f.Link && s.CapBps < nominal*(1-tol) && s.T >= f.Start && s.T < f.End {
					return true
				}
			}
		}
	case "reconfig", "autotune", "remediation":
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			if sp.Kind == trace.KindBarrier && sp.Start >= f.Start && sp.Start <= f.Start.Add(reconfigLag) {
				return true
			}
		}
	}
	return false
}
