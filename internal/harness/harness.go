// Package harness drives the paper's testbed experiments end to end: it
// builds a cluster + fabric + deployment for one of the four evaluated
// systems, launches tenant rank processes, runs measured collective loops
// and aggregates bandwidth statistics. The cmd/ tools, the root-level
// benchmarks and the integration tests all share these drivers.
package harness

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mccs/internal/collective"
	"mccs/internal/diagnosis"
	"mccs/internal/gpusim"
	"mccs/internal/mccsd"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/remediation"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// Env is one simulated world: the scheduler, the topology and fabric,
// and the service deployment on top. NewEnv builds it; whoever built it
// closes it.
type Env struct {
	S          *sim.Scheduler
	Cluster    *topo.Cluster
	Fabric     *netsim.Fabric
	Deployment *mccsd.Deployment
	// Telemetry is the sim-time sampler when the world samples
	// telemetry; nil otherwise.
	Telemetry *telemetry.Sampler
	// Doctor is the online diagnosis engine when DoctorPath was set;
	// nil otherwise.
	Doctor *diagnosis.Engine

	out Instrument
}

// Instrument selects a world's observability planes and the files their
// outputs go to. NewEnv records a trace when TracePath or DoctorPath is
// set, samples telemetry when TelemetryPath is set or TelemetryEvery > 0,
// and attaches the diagnosis engine when DoctorPath is set. None of them
// schedules events, so an instrumented run is byte-identical to a plain
// one. Env.WriteOutputs writes every set path once the run is over.
type Instrument struct {
	// TracePath receives the full-detail recording as Chrome trace-event
	// JSON (view in Perfetto or dump with cmd/mccs-trace).
	TracePath string
	// TelemetryPath receives the sampled metrics series: JSONL by
	// default, Prometheus text when the path ends in ".prom".
	TelemetryPath string
	// TelemetryEvery is the sampling interval (telemetry.DefaultInterval
	// when zero). Set without TelemetryPath it still samples; the series
	// is then only available from the driver's result.
	TelemetryEvery time.Duration
	// DoctorPath receives the diagnosis engine's health report: incident
	// JSONL when the path ends in ".jsonl", the text timeline otherwise.
	// Implies trace recording.
	DoctorPath string
}

// InstrumentFlags registers -trace, -telemetry and -doctor on the
// default flag set; flag.Parse fills in the returned block.
func InstrumentFlags() *Instrument {
	in := &Instrument{}
	flag.StringVar(&in.TracePath, "trace", "", "record the run and write Chrome trace-event JSON here")
	flag.StringVar(&in.TelemetryPath, "telemetry", "", "sample the metrics registry and write the series here (JSONL; .prom for Prometheus text)")
	flag.StringVar(&in.DoctorPath, "doctor", "", "attach the online diagnosis engine and write its health report here (.jsonl for incident JSONL)")
	return in
}

// Report prints where each set output was written and what reads it.
func (in *Instrument) Report(w io.Writer) {
	if in.TracePath != "" {
		fmt.Fprintf(w, "trace written to %s (view in Perfetto, or: mccs-trace summarize %s)\n", in.TracePath, in.TracePath)
	}
	if in.TelemetryPath != "" {
		fmt.Fprintf(w, "telemetry written to %s (render with: mccs-top %s)\n", in.TelemetryPath, in.TelemetryPath)
	}
	if in.DoctorPath != "" {
		fmt.Fprintf(w, "doctor report written to %s\n", in.DoctorPath)
	}
}

// EnvConfig describes one world.
type EnvConfig struct {
	System ncclsim.System
	// Salt is the ECMP label salt. Repeated trials with different salts
	// sample the ECMP collision distribution (the paper's shaded
	// percentile bands come from exactly this variance).
	Salt uint64
	// Cluster is the topology; nil builds the paper's 4-host testbed.
	Cluster *topo.Cluster
	// Mutate edits the service config before the deployment is built:
	// the chaos harness installs exec observers and protocol weakenings,
	// ablations override cost-model knobs.
	Mutate func(*mccsd.Config)
	// TraceCap records a full-detail trace in a ring of TraceCap spans
	// even without TracePath or DoctorPath. When zero and either path is
	// set, the ring holds trace.DefaultCapacity spans.
	TraceCap int
	Instrument
}

// NewEnv builds a world. The flight recorder and the telemetry registry
// attach before the fabric and deployment, which cache their handles at
// construction; the sampler and the diagnosis engine attach last.
func NewEnv(cfg EnvConfig) (*Env, error) {
	cluster := cfg.Cluster
	if cluster == nil {
		var err error
		if cluster, err = topo.BuildClos(topo.TestbedConfig()); err != nil {
			return nil, err
		}
	}
	s := sim.New()
	if cfg.TraceCap > 0 || cfg.TracePath != "" || cfg.DoctorPath != "" {
		capacity := cfg.TraceCap
		if capacity <= 0 {
			capacity = trace.DefaultCapacity
		}
		trace.Attach(s, trace.NewRecorder(trace.LevelFull, capacity))
	}
	var reg *telemetry.Registry
	if cfg.TelemetryPath != "" || cfg.TelemetryEvery > 0 {
		reg = telemetry.NewRegistry()
		telemetry.Attach(s, reg)
	}
	fabric := netsim.NewFabric(s, cluster.Net)
	svc := ncclsim.Config(cfg.System)
	svc.Proxy.LabelSalt = cfg.Salt
	if cfg.Mutate != nil {
		cfg.Mutate(&svc)
	}
	dep := mccsd.NewDeployment(s, cluster, fabric, svc)
	env := &Env{S: s, Cluster: cluster, Fabric: fabric, Deployment: dep, out: cfg.Instrument}
	if reg != nil {
		registerTraceDropped(s, reg)
		every := cfg.TelemetryEvery
		if every <= 0 {
			every = telemetry.DefaultInterval
		}
		env.Telemetry = telemetry.StartSampler(s, reg, every)
	}
	if cfg.DoctorPath != "" {
		var err error
		if env.Doctor, err = AttachDoctor(s); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// NewTestbedEnvInstrumented builds a testbed world that always samples
// telemetry (telemetryEvery <= 0 selects telemetry.DefaultInterval) and
// records a trace when traceCap > 0. The benchmark in perfbench calls it.
func NewTestbedEnvInstrumented(system ncclsim.System, salt uint64, traceCap int, telemetryEvery time.Duration, mutate func(*mccsd.Config)) (*Env, error) {
	if telemetryEvery <= 0 {
		telemetryEvery = telemetry.DefaultInterval
	}
	return NewEnv(EnvConfig{System: system, Salt: salt, Mutate: mutate, TraceCap: traceCap,
		Instrument: Instrument{TelemetryEvery: telemetryEvery}})
}

// Close tears the world down: every live process, parked service
// daemons included, is unwound and pending events are dropped, so no
// goroutine keeps the world reachable. Results already taken from it
// stay valid. Close is idempotent.
func (e *Env) Close() { e.S.Shutdown() }

// WriteOutputs writes the trace, telemetry and doctor files whose paths
// the world was built with.
func (e *Env) WriteOutputs() error {
	if e.out.TracePath != "" {
		if err := WriteTraceFile(e.out.TracePath, e.S, e.Fabric); err != nil {
			return err
		}
	}
	if e.out.TelemetryPath != "" {
		if err := WriteTelemetryFile(e.out.TelemetryPath, e.Telemetry); err != nil {
			return err
		}
	}
	if e.out.DoctorPath != "" {
		return WriteDoctorFile(e.out.DoctorPath, e.Doctor, e.Fabric)
	}
	return nil
}

// registerTraceDropped exports the flight recorder's ring-wrap loss as
// mccs_trace_dropped_total so operators (and the doctor) can see when
// span evidence is incomplete. The collector runs inside the sampler's
// existing event, so the simulated schedule is untouched. No-op when
// either plane is missing.
func registerTraceDropped(s *sim.Scheduler, reg *telemetry.Registry) {
	rec := trace.Of(s)
	if rec == nil || reg == nil {
		return
	}
	dropped := reg.Counter("mccs_trace_dropped_total", "spans")
	reg.AddCollector(func(sim.Time) {
		if d := int64(rec.Dropped()); d > dropped.Value() {
			dropped.Add(d - dropped.Value())
		}
	})
}

// WriteTraceFile flushes still-active flows into the scheduler's flight
// recorder and exports the recording as Chrome trace-event JSON at path.
// Harness drivers call it at experiment end when a -trace flag is set.
func WriteTraceFile(path string, s *sim.Scheduler, fabric *netsim.Fabric) error {
	rec := trace.Of(s)
	if rec == nil {
		return fmt.Errorf("harness: no trace recorder attached")
	}
	if fabric != nil {
		fabric.FlushTrace()
	}
	return writeFile(path, func(w io.Writer) error { return trace.WriteChrome(w, rec.Snapshot()) })
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport writes a diagnosis or remediation report at path: JSONL
// when the path ends in ".jsonl", the human-readable text otherwise.
func writeReport(path string, rep interface {
	WriteJSONL(io.Writer) error
	WriteText(io.Writer) error
}) error {
	return writeFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".jsonl") {
			return rep.WriteJSONL(w)
		}
		return rep.WriteText(w)
	})
}

// AttachDoctor attaches the online diagnosis engine to a scheduler whose
// flight recorder is already on, wiring in the telemetry registry when
// one is attached. Harness drivers call it before the run starts when a
// -doctor flag is set; the engine schedules no events, so the run is
// byte-identical with or without it.
func AttachDoctor(s *sim.Scheduler) (*diagnosis.Engine, error) {
	rec := trace.Of(s)
	if rec == nil {
		return nil, fmt.Errorf("harness: doctor needs a trace recorder attached")
	}
	return diagnosis.Attach(s, rec, telemetry.Of(s), diagnosis.DefaultConfig()), nil
}

// WriteDoctorFile finalizes a live-attached diagnosis engine and writes
// its report at path: incident JSONL when the path ends in ".jsonl", the
// human-readable timeline otherwise. Still-active flows are flushed into
// the recorder first so the final sweep sees their rate evidence.
func WriteDoctorFile(path string, eng *diagnosis.Engine, fabric *netsim.Fabric) error {
	if eng == nil {
		return fmt.Errorf("harness: no diagnosis engine attached")
	}
	if fabric != nil {
		fabric.FlushTrace()
	}
	return writeReport(path, eng.Finish())
}

// AttachRemediation attaches the self-healing control loop to an
// environment that already has a diagnosis engine: the remediation
// engine subscribes to the doctor's verdicts, scans link health on its
// own tick, and drives recovery through the policy controller. The
// caller owns the daemon's lifetime via Start/stop and collects the
// event log with WriteRemediationFile.
func AttachRemediation(env *Env, eng *diagnosis.Engine, cfg remediation.Config) (*remediation.Engine, error) {
	if eng == nil {
		return nil, fmt.Errorf("harness: remediation needs a diagnosis engine attached")
	}
	if trace.Of(env.S) == nil {
		return nil, fmt.Errorf("harness: remediation needs a trace recorder attached")
	}
	return remediation.Attach(env.S, env.Deployment, eng, cfg), nil
}

// WriteRemediationFile finalizes a live remediation engine and writes
// its event log at path: JSONL when the path ends in ".jsonl", the
// operator-facing text report otherwise.
func WriteRemediationFile(path string, eng *remediation.Engine) error {
	if eng == nil {
		return fmt.Errorf("harness: no remediation engine attached")
	}
	return writeReport(path, eng.Finish())
}

// WriteTelemetryFile exports a sampler's series at path: JSONL by
// default, Prometheus text exposition when path ends in ".prom".
// Harness drivers call it at experiment end when -telemetry is set.
func WriteTelemetryFile(path string, sm *telemetry.Sampler) error {
	if sm == nil {
		return fmt.Errorf("harness: no telemetry sampler attached")
	}
	return writeFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".prom") {
			return telemetry.WritePrometheus(w, sm.Registry())
		}
		return telemetry.WriteJSONL(w, sm)
	})
}

// InterleavedHosts returns the testbed hosts in rack-interleaved order
// (rack0, rack1, rack0, rack1): the topology-oblivious node ordering a
// cloud tenant's launcher produces, which is what makes the NCCL
// baseline's rank-order ring zigzag across racks.
func InterleavedHosts(c *topo.Cluster) []topo.HostID {
	var rackHosts [][]topo.HostID
	for _, h := range c.Hosts {
		r := int(h.Rack)
		for len(rackHosts) <= r {
			rackHosts = append(rackHosts, nil)
		}
		rackHosts[r] = append(rackHosts[r], h.ID)
	}
	var out []topo.HostID
	for i := 0; ; i++ {
		progress := false
		for _, hs := range rackHosts {
			if i < len(hs) {
				out = append(out, hs[i])
				progress = true
			}
		}
		if !progress {
			return out
		}
	}
}

// SingleAppGPUs selects the GPUs for the paper's single-application
// setups in user-rank order: nGPUs = 4 takes one GPU per host, nGPUs = 8
// takes both, hosts rack-interleaved (see InterleavedHosts).
func SingleAppGPUs(c *topo.Cluster, nGPUs int) ([]topo.GPUID, error) {
	hosts := InterleavedHosts(c)
	perHost := nGPUs / len(hosts)
	if perHost < 1 || nGPUs%len(hosts) != 0 {
		return nil, fmt.Errorf("harness: %d GPUs over %d hosts", nGPUs, len(hosts))
	}
	var gpus []topo.GPUID
	for _, h := range hosts {
		if perHost > len(c.Hosts[h].GPUs) {
			return nil, fmt.Errorf("harness: host %d has %d GPUs, need %d", h, len(c.Hosts[h].GPUs), perHost)
		}
		gpus = append(gpus, c.Hosts[h].GPUs[:perHost]...)
	}
	return gpus, nil
}

// SingleAppConfig parameterizes a Fig. 6 run: one application, one
// collective, one size, one system.
type SingleAppConfig struct {
	System ncclsim.System
	Op     collective.Op
	// Bytes is the output-buffer size (the paper's x-axis).
	Bytes   int64
	NumGPUs int
	Warmup  int
	Iters   int
	// Trials repeats the whole experiment with different ECMP label
	// salts; samples pool across trials. Defaults to 1.
	Trials int
	// Seed offsets the trial salts.
	Seed uint64
	// Pipeline is the number of collectives kept in flight. The default
	// (1) synchronizes per iteration, which is how the paper's Fig. 6
	// benchmark observes the per-operation datapath latency; deeper
	// pipelining overlaps command latency with execution.
	Pipeline int
	// Instrument records, samples and diagnoses the first trial and
	// writes its outputs; later trials run uninstrumented.
	Instrument
	// Autotune runs the strategy autotuner once after communicator
	// setup and installs the winning strategy before the measured loop
	// (the -autotune flag of mccs-bench). Requires a service-mode
	// system: baseline (library) deployments refuse reconfiguration.
	Autotune bool
}

// SingleAppResult aggregates one Fig. 6 cell.
type SingleAppResult struct {
	Config SingleAppConfig
	// AlgBW and BusBW summarize per-iteration bandwidth in bytes/sec.
	AlgBW metrics.Summary
	BusBW metrics.Summary
}

// RunSingleApp executes a single-application collective benchmark,
// pooling per-iteration bandwidth samples across Trials ECMP-salt trials.
func RunSingleApp(cfg SingleAppConfig) (SingleAppResult, error) {
	return runSingleMutated(cfg, nil)
}

// RunSingleAppWithSlices is RunSingleApp with the proxy's intra-step
// slice pipelining overridden (1 = one monolithic chunk per ring step).
// It is the ablation knob for the slice-pipelining design decision.
func RunSingleAppWithSlices(cfg SingleAppConfig, maxSlices int) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Proxy.MaxSlices = maxSlices
	})
}

// RunSingleAppWithChannels is RunSingleApp with the MCCS strategy's ring
// count capped — the multi-ring (NIC striping) ablation.
func RunSingleAppWithChannels(cfg SingleAppConfig, channels int) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Strategy = policy.OptimalRingStrategy(policy.RingStrategyOptions{
			MaxChannels: channels, PinRoutes: true,
		})
	})
}

// RunSingleAppWithTree is RunSingleApp with binomial-tree collectives
// enabled below treeThreshold output bytes — the tree-vs-ring ablation.
func RunSingleAppWithTree(cfg SingleAppConfig, treeThreshold int64) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Strategy = policy.OptimalRingStrategy(policy.RingStrategyOptions{
			PinRoutes: true, TreeThreshold: treeThreshold,
		})
	})
}

// RunSingleAppWithStrategy is RunSingleApp with every communicator pinned
// to an explicit strategy — the harness hook the tuner's golden tests use
// to measure each candidate exactly as the model scored it.
func RunSingleAppWithStrategy(cfg SingleAppConfig, st spec.Strategy) (SingleAppResult, error) {
	return runSingleMutated(cfg, func(c *mccsd.Config) {
		c.Strategy = func(*topo.Cluster, *spec.CommInfo) spec.Strategy {
			return st.Clone()
		}
	})
}

func runSingleMutated(cfg SingleAppConfig, mutate func(*mccsd.Config)) (SingleAppResult, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 1
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 1
	}
	var algbw []float64
	for trial := 0; trial < cfg.Trials; trial++ {
		tcfg := cfg
		if trial > 0 {
			tcfg.Instrument = Instrument{}
		}
		vals, err := runSingleTrial(tcfg, cfg.Seed+uint64(trial)*0x9e3779b97f4a7c15, mutate)
		if err != nil {
			return SingleAppResult{}, err
		}
		algbw = append(algbw, vals...)
	}
	factor := collective.BusBWFactor(cfg.Op, cfg.NumGPUs)
	busbw := make([]float64, len(algbw))
	for i, v := range algbw {
		busbw[i] = v * factor
	}
	return SingleAppResult{
		Config: cfg,
		AlgBW:  metrics.Summarize(algbw),
		BusBW:  metrics.Summarize(busbw),
	}, nil
}

func runSingleTrial(cfg SingleAppConfig, salt uint64, mutate func(*mccsd.Config)) ([]float64, error) {
	env, err := NewEnv(EnvConfig{System: cfg.System, Salt: salt, Mutate: mutate, Instrument: cfg.Instrument})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	gpus, err := SingleAppGPUs(env.Cluster, cfg.NumGPUs)
	if err != nil {
		return nil, err
	}
	n := len(gpus)
	count := cfg.Bytes / 4
	perRank := count
	if cfg.Op == collective.AllGather {
		perRank = count / int64(n)
		if perRank < 1 {
			return nil, fmt.Errorf("harness: %d bytes too small for %d-rank AllGather", cfg.Bytes, n)
		}
	}
	var algbw []float64
	errs := make([]error, n)

	// Autotune: every rank checks in after communicator setup, the
	// controller scores and installs the winning strategy while the
	// datapath is idle, then the measured loops are released.
	var ctrl *policy.Controller
	var ready *sim.Latch
	tuned := &sim.Event{}
	var tuneErr error
	if cfg.Autotune {
		if env.Deployment.Config().Baseline {
			return nil, fmt.Errorf("harness: autotune requires a service-mode system")
		}
		ctrl = policy.NewController(env.Deployment)
		ready = sim.NewLatch(n)
		env.S.Go("tuner", func(p *sim.Proc) {
			ready.Wait(p)
			view := env.Deployment.View()
			if len(view) == 0 {
				tuneErr = fmt.Errorf("harness: no communicator to autotune")
			} else if _, err := ctrl.Autotune(p, view[0].ID, policy.AutotuneOptions{
				Op: cfg.Op, Bytes: cfg.Bytes,
			}); err != nil {
				tuneErr = err
			}
			tuned.Signal(env.S)
		})
	}

	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := env.Cluster.HostOfGPU(gpu)
		env.S.Go(fmt.Sprintf("app:rank%d", rank), func(p *sim.Proc) {
			f := env.Deployment.Service(host).Frontend("bench")
			var send, recv *gpusim.Buffer
			var err error
			if cfg.Op == collective.AllGather {
				if send, err = f.MemAlloc(p, gpu, perRank*4, false); err != nil {
					errs[rank] = err
					return
				}
				if recv, err = f.MemAlloc(p, gpu, perRank*4*int64(n), false); err != nil {
					errs[rank] = err
					return
				}
			} else {
				if recv, err = f.MemAlloc(p, gpu, perRank*4, false); err != nil {
					errs[rank] = err
					return
				}
			}
			comm, err := f.CommInitRank(p, "bench", n, rank, gpu)
			if err != nil {
				errs[rank] = err
				return
			}
			if cfg.Autotune {
				ready.Done(env.S)
				tuned.Wait(p)
				if tuneErr != nil {
					return
				}
			}
			issue := func() (*mccsd.OpHandle, error) {
				switch cfg.Op {
				case collective.AllGather:
					return comm.AllGather(p, send, recv, perRank, nil)
				case collective.AllReduce:
					return comm.AllReduce(p, nil, recv, perRank, nil)
				default:
					return nil, fmt.Errorf("harness: unsupported single-app op %v", cfg.Op)
				}
			}
			done, err := pipelinedLoop(p, issue, cfg.Warmup+cfg.Iters, cfg.Pipeline)
			if err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				algbw = append(algbw, gapBandwidth(done, cfg.Bytes, cfg.Warmup)...)
				if ctrl != nil {
					if _, err := ctrl.ObserveAchieved(comm.ID(), 0); err != nil {
						errs[rank] = err
					}
				}
			}
		})
	}
	if err := env.S.Run(); err != nil {
		return nil, err
	}
	if tuneErr != nil {
		return nil, tuneErr
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if err := env.WriteOutputs(); err != nil {
		return nil, err
	}
	return algbw, nil
}

// pipelinedLoop issues total collectives keeping up to depth in flight
// (nccl-tests style) and returns each op's tenant-observed completion time.
func pipelinedLoop(p *sim.Proc, issue func() (*mccsd.OpHandle, error), total, depth int) ([]sim.Time, error) {
	if depth <= 0 {
		depth = 1
	}
	var pending []*mccsd.OpHandle
	done := make([]sim.Time, 0, total)
	for it := 0; it < total; it++ {
		h, err := issue()
		if err != nil {
			return nil, err
		}
		pending = append(pending, h)
		if len(pending) >= depth {
			done = append(done, pending[0].Wait(p).Done)
			pending = pending[1:]
		}
	}
	for _, h := range pending {
		done = append(done, h.Wait(p).Done)
	}
	return done, nil
}

// gapBandwidth converts completion timestamps into steady-state algorithm
// bandwidth samples: outputBytes divided by the gap between consecutive
// completions, skipping warmup iterations.
func gapBandwidth(done []sim.Time, outputBytes int64, warmup int) []float64 {
	var out []float64
	for i := warmup + 1; i < len(done); i++ {
		gap := done[i].Sub(done[i-1])
		if gap <= 0 {
			continue
		}
		out = append(out, collective.AlgBW(outputBytes, gap))
	}
	return out
}
