// Command perfbench is the repository benchmark: it runs one named
// workload on the simulator, checks its outputs, and prints one JSON
// object as the last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics, measured with the
// program's instrumentation as each workload normally runs it. With
// --trace 1 it prints the per-layer metrics: a CPU and allocation
// profile of a second pass split by layer, spans the benchmark records
// around the public constructors, and the program's own flight-recorder
// and telemetry counters. BENCHMARK.json lists every metric; README.md
// says which end-to-end metric each per-layer metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// phase is what one pass over a workload's worlds produced. Counters
// are filled only by instrumented passes.
type phase struct {
	worlds      int
	collectives int // collectives completed, counted once per communicator
	attempted   int
	failed      int
	problems    []string

	// unitMs is the virtual completion time of each unit of tenant
	// work: a collective as its tenant observes it, or on tenant-churn
	// a job from arrival to finish.
	unitMs  []float64
	opBytes float64 // output bytes of the run's collectives
	opSecs  float64 // their summed virtual duration, seconds
	events  uint64  // scheduler events executed

	// counters holds per-layer counts read from the program's telemetry
	// registry, flight recorder and reports, and the simulated outcomes
	// only one workload has (recovery fraction, time to recover).
	counters map[string]float64
	// fingerprint identifies the first world's simulated results
	// exactly; the determinism check replays that world and compares.
	fingerprint string
	// analyze times a post-hoc diagnosis replay of the first world's
	// recording (nil when the pass kept none).
	analyze func() time.Duration
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.problems) < 8 {
		ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
	}
}

// endWorld counts a finished world and its completed collectives.
func (ph *phase) endWorld(collectives int) {
	ph.worlds++
	ph.collectives += collectives
}

func (ph *phase) add(name string, v float64) {
	if ph.counters == nil {
		ph.counters = map[string]float64{}
	}
	ph.counters[name] += v
}

// workload is one benchmark input set.
type workload struct {
	// probe builds one world of the workload's shape through the public
	// constructors and initialises a communicator over all its GPUs.
	probe func() (setupTimes, error)
	// run executes the measured pass. instrument attaches the program's
	// flight recorder and telemetry registry to workloads that do not
	// run with them already.
	run func(seed uint64, seconds float64, instrument bool) (*phase, error)
	// replay re-runs the first world of run(seed, seconds, false)
	// through an independent entry point and returns its fingerprint.
	replay func(seed uint64, seconds float64) (string, error)
	// instrumented reports that run always carries the instrumentation,
	// so the profiled pass already yields the counters.
	instrumented bool
}

var workloads = map[string]workload{
	"ring-reconfig":     ringReconfig,
	"small-collectives": smallCollectives,
	"tenant-churn":      tenantChurn,
	"chaos-selfheal":    chaosSelfHeal,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "target length of the measured pass, host seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of a profiled, instrumented pass")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		os.Exit(2)
	}
	var out *output
	var err error
	if *traced == 1 {
		out, err = runTraced(w, *seed, *seconds)
	} else {
		out, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for name, m := range out.Metrics {
		// A pass whose checks failed may leave a percentile without
		// samples; the run then reports 0 and counts as incorrect.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no value\n", name)
			out.Metrics[name] = metric{0, m.Unit}
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setupTimes is one probe world's set-up, split by constructor.
type setupTimes struct{ topo, deploy, commInit time.Duration }

func (s setupTimes) total() time.Duration { return s.topo + s.deploy + s.commInit }

// probeCount is how many worlds set-up is measured over; setup_s is
// their median, so one slow probe (a GC, a page fault burst) is ignored.
const probeCount = 21

func runProbes(w workload) ([]setupTimes, error) {
	out := make([]setupTimes, 0, probeCount)
	for i := 0; i < probeCount; i++ {
		runtime.GC()
		st, err := w.probe()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, st)
	}
	return out, nil
}

func medianOf(probes []setupTimes, part func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(probes))
	for i, p := range probes {
		v[i] = part(p).Seconds()
	}
	return quantile(v, 0.5)
}

// measured is a pass with its host-side cost.
type measured struct {
	*phase
	host        time.Duration
	allocBytes  uint64
	allocs      uint64
	retained    float64 // live heap after GC, after minus before, bytes
	goroutines  int
	gcCycles    uint32
	gcPauseNs   uint64
	cpuByLayer  map[string]float64
	heapByLayer map[string]float64
}

// measure runs one pass and takes its host-side cost from outside: wall
// time, runtime.MemStats deltas, live heap and goroutines before and
// after. With profile set it also records a CPU profile and the
// allocation profile delta of the pass.
func measure(run func() (*phase, error), profile bool) (*measured, error) {
	var before, after, settled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g0 := runtime.NumGoroutine()
	var cpu bytes.Buffer
	var heap0 []byte
	if profile {
		var err error
		if heap0, err = allocProfile(); err != nil {
			return nil, err
		}
		// StartCPUProfile asks for 100 Hz; setting the rate first keeps a
		// finer one (the runtime prints a notice on standard error), so
		// short passes still give each layer enough samples.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	ph, err := run()
	host := time.Since(t0)
	if profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&settled)
	m := &measured{
		phase:      ph,
		host:       host,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
		retained:   float64(settled.HeapAlloc) - float64(before.HeapAlloc),
		goroutines: runtime.NumGoroutine() - g0,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
	if profile {
		if m.cpuByLayer, err = profileByLayer(cpu.Bytes(), 1); err != nil {
			return nil, err
		}
		heap1, err := allocProfile()
		if err != nil {
			return nil, err
		}
		a0, err := profileByLayer(heap0, 1)
		if err != nil {
			return nil, err
		}
		if m.heapByLayer, err = profileByLayer(heap1, 1); err != nil {
			return nil, err
		}
		for k, v := range a0 {
			m.heapByLayer[k] -= v
		}
	}
	return m, nil
}

const cpuProfileHz = 500

// allocProfile returns the cumulative allocation profile; the runtime
// publishes samples at GC, so one is forced first.
func allocProfile() ([]byte, error) {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func runUntraced(w workload, seed uint64, seconds float64) (*output, error) {
	probes, err := runProbes(w)
	if err != nil {
		return nil, err
	}
	m, err := measure(func() (*phase, error) { return w.run(seed, seconds, false) }, false)
	if err != nil {
		return nil, err
	}
	// Determinism self-check: the first world, replayed through an
	// independent entry point, must reproduce every simulated result
	// bit for bit.
	m.attempted++
	fp, err := w.replay(seed, seconds)
	if err != nil {
		m.fail("replay: %v", err)
	} else if fp != m.fingerprint {
		m.fail("replay differs:\n  run    %s\n  replay %s", m.fingerprint, fp)
	}
	report(m.phase)
	fmt.Fprintf(os.Stderr, "perfbench: measured pass %.2fs, %d worlds, %d collectives\n", m.host.Seconds(), m.worlds, m.collectives)

	mt := map[string]metric{}
	put := func(name string, v float64, unit string) { mt[name] = metric{v, unit} }
	put("setup_s", medianOf(probes, setupTimes.total), "s")
	put("collectives_per_s", float64(m.collectives)/m.host.Seconds(), "1/s")
	put("alloc_mb", float64(m.allocBytes)/1e6, "MB")
	put("allocs_k", float64(m.allocs)/1e3, "k")
	put("peak_rss_mb", peakRSSMB(), "MB")
	put("retained_heap_mb", m.retained/1e6, "MB")
	put("leaked_goroutines", float64(m.goroutines), "count")
	put("ok_frac", 1-float64(m.failed)/float64(m.attempted), "ratio")
	put("sim_algbw_gbps", m.opBytes/m.opSecs/1e9, "GB/s")
	put("sim_p50_ms", quantile(m.unitMs, 0.50), "ms")
	put("sim_p90_ms", quantile(m.unitMs, 0.90), "ms")
	return &output{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: mt}, nil
}

// cpuLayers are the layers the CPU profile is split into. Every sample
// lands in exactly one, so their shares sum to 1: internal packages not
// named here go to "other", the benchmark's own frames to "bench", and
// stacks that never enter the module to "runtime_bg".
var cpuLayers = []string{
	"sim", "netsim", "transport", "collective", "proxy", "mccsd", "gpusim",
	"policy", "tuner", "orchestrator", "trace", "telemetry", "diagnosis",
	"remediation", "chaos", "harness", "workload", "bench", "other", "runtime_bg",
}

// allocLayers get an alloc_mb metric: the layers that allocate on the
// datapath or per span.
var allocLayers = []string{
	"sim", "netsim", "transport", "collective", "proxy", "mccsd", "gpusim",
	"trace", "telemetry", "diagnosis", "runtime_bg",
}

// counterNames are the per-layer counts every traced run reports; a
// workload whose worlds never exercise a layer reports 0 for it.
var counterNames = []string{
	"netsim.flows_started", "netsim.recomputes", "netsim.vt_flow_busy_ms",
	"transport.messages", "transport.tx_gb", "transport.ooo_deliveries", "transport.vt_xfer_busy_ms",
	"proxy.steps", "proxy.ops", "proxy.reconfigs", "proxy.barrier_phases", "proxy.vt_barrier_wait_ms",
	"mccsd.cmds", "mccsd.comms", "mccsd.cmd_rtt_p50_us", "mccsd.cmd_rtt_p99_us",
	"policy.applies", "policy.routes_pinned", "tuner.searches", "tuner.candidates",
	"orchestrator.placements", "orchestrator.reconfigs", "orchestrator.rejects", "orchestrator.queue_wait_p90_ms",
	"trace.spans", "trace.dropped", "telemetry.samples",
	"diagnosis.incidents", "diagnosis.precision", "diagnosis.recall",
	"remediation.actions", "remediation.suppressed", "remediation.recovered_per_action",
	"chaos.invariant_failures", "sim_recovery_frac", "sim_ttr_p50_ms",
}

func runTraced(w workload, seed uint64, seconds float64) (*output, error) {
	probes, err := runProbes(w)
	if err != nil {
		return nil, err
	}
	run := func(instrument bool) func() (*phase, error) {
		return func() (*phase, error) { return w.run(seed, seconds, instrument) }
	}
	plain, err := measure(run(false), false)
	if err != nil {
		return nil, err
	}
	prof, err := measure(run(false), true)
	if err != nil {
		return nil, err
	}
	counted := prof.phase
	if !w.instrumented {
		if counted, err = run(true)(); err != nil {
			return nil, err
		}
	}
	attempted := plain.attempted + prof.attempted + counted.attempted
	failed := plain.failed + prof.failed + counted.failed
	if plain.events != prof.events || plain.events != counted.events {
		attempted++
		failed++
		fmt.Fprintf(os.Stderr, "event counts differ between passes: %d %d %d\n", plain.events, prof.events, counted.events)
	}
	report(plain.phase)
	report(prof.phase)
	if counted != prof.phase {
		report(counted)
	}

	mt := map[string]metric{}
	put := func(name string, v float64, unit string) { mt[name] = metric{v, unit} }
	var cpuTotal float64
	cpu := map[string]float64{}
	for pkg, ns := range prof.cpuByLayer {
		cpu[layerBucket(pkg)] += ns
		cpuTotal += ns
	}
	if cpuTotal <= 0 {
		return nil, fmt.Errorf("CPU profile recorded no samples")
	}
	var shareSum float64
	for _, l := range cpuLayers {
		shareSum += cpu[l] / cpuTotal
		put(l+".cpu_share", cpu[l]/cpuTotal, "ratio")
	}
	if math.Abs(shareSum-1) > 1e-9 {
		return nil, fmt.Errorf("cpu shares sum to %v, not 1", shareSum)
	}
	for _, l := range allocLayers {
		put(l+".alloc_mb", prof.heapByLayer[l]/1e6, "MB")
	}
	put("sim.events", float64(plain.events), "count")
	put("sim.host_ns_per_event", float64(plain.host.Nanoseconds())/float64(plain.events), "ns")
	put("runtime.gc_cycles", float64(plain.gcCycles), "count")
	put("runtime.gc_pause_ms", float64(plain.gcPauseNs)/1e6, "ms")
	put("traced.host_ratio", prof.host.Seconds()/plain.host.Seconds(), "ratio")
	put("world.retained_heap_mb", plain.retained/1e6/float64(plain.worlds), "MB")
	put("world.leaked_goroutines", float64(plain.goroutines)/float64(plain.worlds), "count")
	put("setup.topo_ms", 1e3*medianOf(probes, func(s setupTimes) time.Duration { return s.topo }), "ms")
	put("setup.deploy_ms", 1e3*medianOf(probes, func(s setupTimes) time.Duration { return s.deploy }), "ms")
	put("setup.comm_init_ms", 1e3*medianOf(probes, func(s setupTimes) time.Duration { return s.commInit }), "ms")
	for _, n := range counterNames {
		put(n, counted.counters[n], counterUnit(n))
	}
	analyzeMs := 0.0
	if counted.analyze != nil {
		var runs []float64
		for i := 0; i < 3; i++ {
			runs = append(runs, float64(counted.analyze().Nanoseconds())/1e6)
		}
		analyzeMs = quantile(runs, 0.5)
	}
	put("diagnosis.analyze_ms", analyzeMs, "ms")
	return &output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: mt}, nil
}

// layerBucket folds internal packages without a metric of their own
// into "other".
func layerBucket(pkg string) string {
	if slices.Contains(cpuLayers, pkg) {
		return pkg
	}
	return "other"
}

func counterUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_gb"):
		return "GB"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "precision"),
		strings.HasSuffix(name, "recall"), strings.HasSuffix(name, "_per_action"):
		return "ratio"
	}
	return "count"
}

// report prints a pass's failed checks to standard error.
func report(ph *phase) {
	for _, p := range ph.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
}

// quantile is the linear-interpolation quantile of v (v is not
// modified); NaN when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1e3
		}
	}
	return math.NaN()
}
