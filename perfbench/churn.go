package main

import (
	"fmt"
	"os"
	"path/filepath"

	"mccs/internal/harness"
	"mccs/internal/orchestrator"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
	job "mccs/internal/workload"
)

// tenant-churn is an open-loop, seeded job arrival stream through the
// lifecycle orchestrator with FFA reconfiguration and autotune on, and
// trace, telemetry and doctor attached and written out, as
// `mccs-churn -autotune -trace -telemetry -doctor` runs it. Several
// worlds run back to back in one process. The control plane and the
// instrumentation layers run here and are off in ring-reconfig.
//
// The benchmark assembles each world from the harness's public pieces,
// as harness.RunChurn does, so it can count scheduler events; the
// determinism check replays the first world through RunChurn itself,
// which also applies RunChurn's leak and quiescence checks.
var tenantChurn = workload{
	probe:        probe(testbed),
	run:          runChurn,
	replay:       replayChurn,
	instrumented: true,
}

// churnJobsPerHost is jobs per host second on a 2-CPU host.
const churnJobsPerHost = 70

// outDir holds the trace, telemetry and doctor files the churn worlds
// write, inside the working directory.
var outDir = filepath.Join(".bench_build", "perfbench-out")

// churnSeeds are the arrival-stream seeds of a pass's worlds: a fresh
// one drawn from the benchmark seed, then pinned ones, so runs stay
// comparable while each still covers a stream no one chose.
func churnSeeds(seed uint64) []uint64 { return []uint64{1000 + seed, 1, 2, 3} }

func churnConfig(worldSeed uint64, seconds float64) harness.ChurnConfig {
	cfg := harness.DefaultChurnConfig()
	cfg.Seed = worldSeed
	cfg.Jobs = max(25, int(seconds*churnJobsPerHost/float64(len(churnSeeds(0)))))
	cfg.Autotune = true
	cfg.TracePath = filepath.Join(outDir, "churn.trace.json")
	cfg.TelemetryPath = filepath.Join(outDir, "churn.telemetry.jsonl")
	cfg.DoctorPath = filepath.Join(outDir, "churn.incidents.jsonl")
	return cfg
}

func runChurn(seed uint64, seconds float64, _ bool) (*phase, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(outDir)
	ph := &phase{}
	tally := &spanTally{}
	var queue []float64
	for wi, ws := range churnSeeds(seed) {
		cfg := churnConfig(ws, seconds)
		env, err := harness.NewTestbedEnvInstrumented(cfg.System, cfg.Seed, trace.DefaultCapacity, telemetry.DefaultInterval, nil)
		if err != nil {
			return nil, err
		}
		var events uint64
		env.S.SetObserver(func(sim.Time, uint64) { events++ })
		doctor, err := harness.AttachDoctor(env.S)
		if err != nil {
			return nil, err
		}
		orch := orchestrator.New(env.S, env.Cluster, env.Deployment, orchestrator.Config{
			Reconfigure: cfg.Reconfigure, Autotune: cfg.Autotune,
		})
		for _, js := range harness.GenerateChurnJobs(cfg.Seed, cfg.Jobs, cfg.MeanGap) {
			orch.Submit(js)
		}
		if err := env.S.Run(); err != nil {
			return nil, err
		}
		ph.events += events
		if err := orch.Err(); err != nil {
			ph.fail("world %d: %v", wi, err)
		}
		if err := harness.WriteTraceFile(cfg.TracePath, env.S, env.Fabric); err != nil {
			return nil, err
		}
		if err := harness.WriteTelemetryFile(cfg.TelemetryPath, env.Telemetry); err != nil {
			return nil, err
		}
		if err := harness.WriteDoctorFile(cfg.DoctorPath, doctor, env.Fabric); err != nil {
			return nil, err
		}
		jobs := orch.Jobs()
		collectives := 0
		for _, j := range jobs {
			ph.attempted++
			if j.State != orchestrator.StateDone || j.Result == nil || j.Result.Err != nil {
				ph.fail("world %d job %d: state %v %s", wi, j.ID, j.State, j.Reason)
				continue
			}
			ph.unitMs = append(ph.unitMs, float64(j.JCT())/1e6)
			queue = append(queue, float64(j.QueueDelay())/1e6)
			collectives += len(j.Result.IterTimes) * collectivesPerIter(j.Spec.Trace)
		}
		ph.endWorld(collectives)
		// After the stream drains every job must have returned its
		// capacity and left no communicator, flow or queued work.
		ph.attempted++
		if free, total := orch.FreeGPUs(), len(env.Cluster.GPUs); free != total {
			ph.fail("world %d leaked GPUs: %d free of %d", wi, free, total)
		} else if q := orch.QueueLen(); q != 0 {
			ph.fail("world %d: %d jobs still queued", wi, q)
		} else if v := env.Deployment.View(); len(v) != 0 {
			ph.fail("world %d: %d communicators leaked", wi, len(v))
		} else if n := env.Fabric.ManagedFlows(); n != 0 {
			ph.fail("world %d: %d managed flows leaked", wi, n)
		} else if err := env.Deployment.CheckQuiescent(); err != nil {
			ph.fail("world %d not quiescent: %v", wi, err)
		}

		rec := trace.Of(env.S).Snapshot()
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			tally.add(sp)
			if sp.Kind == trace.KindCmd {
				ph.opBytes += float64(sp.Bytes)
				ph.opSecs += sp.Dur().Seconds()
			}
		}
		series := telemetry.SeriesOf(env.Telemetry)
		prom, err := promText(env.Telemetry.Registry())
		if err != nil {
			return nil, err
		}
		if err := addInstrumentation(ph, prom, len(series.Samples), rec.Dropped); err != nil {
			return nil, err
		}
		ph.add("diagnosis.incidents", float64(len(doctor.Finish().Incidents)))
		if wi == 0 {
			ph.fingerprint = churnFingerprint(jobs)
			ph.analyze = analyzeRecording(rec, series)
		}
	}
	tally.addTo(ph)
	ph.counters["orchestrator.queue_wait_p90_ms"] = quantile(queue, 0.9)
	return ph, nil
}

// collectivesPerIter counts the collective phases of one iteration.
func collectivesPerIter(t job.Trace) int {
	n := 0
	for _, p := range t.Phases {
		if p.Kind == job.Collective {
			n++
		}
	}
	return n
}

func churnFingerprint(jobs []*orchestrator.Job) string {
	var parts []any
	for _, j := range jobs {
		parts = append(parts, j.ID, j.State, int64(j.Arrived), int64(j.Started), int64(j.Finished))
	}
	return fmt.Sprintln(parts...)
}

func replayChurn(seed uint64, seconds float64) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(outDir)
	res, err := harness.RunChurn(churnConfig(churnSeeds(seed)[0], seconds))
	if err != nil {
		return "", fmt.Errorf("RunChurn: %w", err)
	}
	return churnFingerprint(res.Jobs), nil
}
