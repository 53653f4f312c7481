package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"mccs/internal/diagnosis"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// This file holds what the workloads share: world construction through
// the public constructors, the set-up probe, and the readers that turn
// the program's flight recorder and telemetry registry into per-layer
// counts.

// splitmix64 derives every workload input from the benchmark seed.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// unit returns a float in [0, 1).
func (r *splitmix64) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// world is one simulated installation built through the public
// constructors, timed per constructor.
type world struct {
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	dep     *mccsd.Deployment
	rec     *trace.Recorder
	sampler *telemetry.Sampler
	events  uint64
	setup   setupTimes
}

// buildWorld builds a world on the given topology. With instrument set
// the flight recorder and the telemetry registry are attached before
// the fabric and deployment, which cache their handles at construction.
// Every world counts its scheduler events through the observer hook.
func buildWorld(build func() (*topo.Cluster, error), svc mccsd.Config, instrument bool) (*world, error) {
	w := &world{}
	t0 := time.Now()
	cluster, err := build()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	w.setup.topo = t1.Sub(t0)
	w.s = sim.New()
	w.s.SetObserver(func(sim.Time, uint64) { w.events++ })
	var reg *telemetry.Registry
	if instrument {
		w.rec = trace.NewRecorder(trace.LevelFull, trace.DefaultCapacity)
		trace.Attach(w.s, w.rec)
		reg = telemetry.NewRegistry()
		telemetry.Attach(w.s, reg)
	}
	w.cluster = cluster
	w.fabric = netsim.NewFabric(w.s, cluster.Net)
	w.dep = mccsd.NewDeployment(w.s, cluster, w.fabric, svc)
	if reg != nil {
		w.sampler = telemetry.StartSampler(w.s, reg, telemetry.DefaultInterval)
	}
	w.setup.deploy = time.Since(t1)
	return w, nil
}

func testbed() (*topo.Cluster, error) { return topo.BuildClos(topo.TestbedConfig()) }

func gpusOf(c *topo.Cluster) []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	return gpus
}

// probe builds one world and brings up one communicator over every GPU,
// which is the set-up every workload pays before its first collective.
func probe(build func() (*topo.Cluster, error)) func() (setupTimes, error) {
	return func() (setupTimes, error) {
		w, err := buildWorld(build, ncclsim.Config(ncclsim.MCCS), false)
		if err != nil {
			return setupTimes{}, err
		}
		gpus := gpusOf(w.cluster)
		var errs []error
		t0 := time.Now()
		for rank, gpu := range gpus {
			rank, gpu := rank, gpu
			w.s.Go("probe", func(p *sim.Proc) {
				f := w.dep.Service(w.cluster.HostOfGPU(gpu)).Frontend("probe")
				if _, err := f.CommInitRank(p, "probe", len(gpus), rank, gpu); err != nil {
					errs = append(errs, err)
				}
			})
		}
		if err := w.s.Run(); err != nil {
			return setupTimes{}, err
		}
		w.setup.commInit = time.Since(t0)
		if len(errs) > 0 {
			return setupTimes{}, errs[0]
		}
		return w.setup, nil
	}
}

// spanTally accumulates per-layer virtual time and counts from flight
// recorder spans.
type spanTally struct {
	spans               uint64
	flow, xfer, barrier sim.Duration
	cmdUs               []float64
}

func (t *spanTally) add(sp *trace.Span) {
	t.spans++
	switch sp.Kind {
	case trace.KindFlow:
		t.flow += sp.Dur()
	case trace.KindXfer:
		t.xfer += sp.Dur()
	case trace.KindBarrier:
		t.barrier += sp.Dur()
	case trace.KindCmd:
		t.cmdUs = append(t.cmdUs, float64(sp.Dur())/1e3)
	}
}

// addTo moves a pass's tally into its counters. Spans the recorder
// dropped on ring wrap are counted by addInstrumentation, not here.
func (t *spanTally) addTo(ph *phase) {
	ms := func(d sim.Duration) float64 { return float64(d) / 1e6 }
	ph.add("trace.spans", float64(t.spans))
	ph.add("netsim.vt_flow_busy_ms", ms(t.flow))
	ph.add("transport.vt_xfer_busy_ms", ms(t.xfer))
	ph.add("proxy.vt_barrier_wait_ms", ms(t.barrier))
	if len(t.cmdUs) > 0 {
		ph.add("mccsd.cmd_rtt_p50_us", quantile(t.cmdUs, 0.5))
		ph.add("mccsd.cmd_rtt_p99_us", quantile(t.cmdUs, 0.99))
	}
}

// promCounters are the telemetry families read into per-layer counts,
// summed over every label set, with a scale to the metric's unit.
var promCounters = []struct {
	family, name string
	scale        float64
}{
	{"mccs_fabric_flows_started_total", "netsim.flows_started", 1},
	{"mccs_fabric_recomputes_total", "netsim.recomputes", 1},
	{"mccs_transport_messages_total", "transport.messages", 1},
	{"mccs_transport_tx_bytes_total", "transport.tx_gb", 1e-9},
	{"mccs_transport_ooo_deliveries_total", "transport.ooo_deliveries", 1},
	{"mccs_proxy_steps_total", "proxy.steps", 1},
	{"mccs_proxy_ops_total", "proxy.ops", 1},
	{"mccs_proxy_reconfigs_total", "proxy.reconfigs", 1},
	{"mccs_proxy_barrier_phases_total", "proxy.barrier_phases", 1},
	{"mccs_frontend_cmds_total", "mccsd.cmds", 1},
	{"mccs_service_comms_total", "mccsd.comms", 1},
	{"mccs_policy_applies_total", "policy.applies", 1},
	{"mccs_policy_routes_pinned_total", "policy.routes_pinned", 1},
	{"mccs_tuner_searches_total", "tuner.searches", 1},
	{"mccs_tuner_candidates_total", "tuner.candidates", 1},
	{"mccs_sched_placements_total", "orchestrator.placements", 1},
	{"mccs_sched_reconfigs_total", "orchestrator.reconfigs", 1},
	{"mccs_sched_admission_rejects_total", "orchestrator.rejects", 1},
	{"mccs_remediation_suppressed_total", "remediation.suppressed", 1},
}

// addProm adds a Prometheus text export's counter families to ph.
func addProm(ph *phase, text []byte) error {
	totals := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return fmt.Errorf("telemetry export line %q: %w", line, err)
		}
		totals[name] += v
	}
	for _, c := range promCounters {
		ph.add(c.name, totals[c.family]*c.scale)
	}
	return nil
}

// addInstrumentation reads a world's telemetry export, sampler count
// and the recorder's ring-wrap loss into ph.
func addInstrumentation(ph *phase, prom []byte, samples int, dropped uint64) error {
	if err := addProm(ph, prom); err != nil {
		return err
	}
	ph.add("telemetry.samples", float64(samples))
	ph.add("trace.dropped", float64(dropped))
	ph.add("trace.spans", float64(dropped))
	return nil
}

// promText is a registry's Prometheus text export.
func promText(reg *telemetry.Registry) ([]byte, error) {
	var b bytes.Buffer
	err := telemetry.WritePrometheus(&b, reg)
	return b.Bytes(), err
}

// opHash folds a deterministic sequence of virtual timestamps.
type opHash struct{ h hash.Hash64 }

func newOpHash() *opHash { return &opHash{fnv.New64a()} }

func (o *opHash) add(vals ...sim.Time) {
	var buf []byte
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	o.h.Write(buf)
}

func (o *opHash) String() string { return strconv.FormatUint(o.h.Sum64(), 16) }

// analyzeRecording times a post-hoc diagnosis replay of a recording.
func analyzeRecording(rec trace.Recording, se *telemetry.Series) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		diagnosis.Analyze(rec, se, diagnosis.DefaultConfig())
		return time.Since(t0)
	}
}
