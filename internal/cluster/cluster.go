// Package cluster implements the paper's large-scale simulation (§6.5):
// 768 GPUs in a 2:1-oversubscribed spine-leaf fabric, 50 data-parallel
// ResNet-50 jobs arriving as a Poisson process, placed randomly or
// compactly, running ring AllReduce under three strategies — random ring
// order, locality-optimal rings (OR), and OR with fair flow assignment
// (OR+FFA).
//
// Like the paper's own evaluation, this is a flow-level simulation (the
// paper: "Our flow-level simulator assumes per-flow fairness"): each
// AllReduce iteration becomes one flow per inter-host ring edge carrying
// that edge's share of the traffic; rings can optionally advance in
// lock-step (coflow coupling). Route decisions reuse exactly the policy
// code the MCCS service runs (policy.FFA, policy.LocalityRing).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mccs/internal/metrics"
	"mccs/internal/netsim"
	"mccs/internal/policy"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// Placement selects the job placement policy.
type Placement int

const (
	// PlacementRandom scatters a job over random free GPUs.
	PlacementRandom Placement = iota
	// PlacementCompact packs a job into as few racks as possible.
	PlacementCompact
)

func (p Placement) String() string {
	if p == PlacementCompact {
		return "compact"
	}
	return "random"
}

// Strategy selects the collective configuration.
type Strategy int

const (
	// StratRandomRing orders each ring randomly (the NCCL-with-
	// arbitrary-ranks baseline) and routes by ECMP.
	StratRandomRing Strategy = iota
	// StratOR uses locality-optimal rings, still routed by ECMP.
	StratOR
	// StratORFFA adds fair flow assignment, re-run whenever a job joins
	// or leaves (the paper: "rescheduling occurs only when a job joins
	// or exits").
	StratORFFA
)

var stratNames = [...]string{"RandomRing", "OR", "OR+FFA"}

func (s Strategy) String() string {
	if int(s) < len(stratNames) {
		return stratNames[s]
	}
	return "Unknown"
}

// Config parameterizes a run.
type Config struct {
	Topo        topo.ClosConfig
	NumJobs     int
	JobSizes    []int
	MeanArrival time.Duration
	Iterations  int
	ModelBytes  int64
	ComputeTime time.Duration
	Placement   Placement
	Strategy    Strategy
	Seed        int64
	// CoupleRings makes each ring's flows advance at the ring's
	// bottleneck rate (lock-step semantics). Off = plain per-flow
	// fairness, the paper's stated model. Kept as a switch for the
	// ablation benchmark.
	CoupleRings bool
	// GroupHostsInRandomRings switches the random-ring baseline from a
	// fully random rank ring (the default, the paper's literal "random
	// ring selection") to a random host chain with intra-host grouping
	// preserved.
	GroupHostsInRandomRings bool
}

// DefaultConfig reproduces the paper's §6.5 parameters.
func DefaultConfig() Config {
	return Config{
		Topo:        topo.LargeScaleConfig(),
		NumJobs:     50,
		JobSizes:    []int{16, 32},
		MeanArrival: 200 * time.Millisecond,
		Iterations:  10,
		ModelBytes:  100 << 20,
		ComputeTime: 100 * time.Millisecond,
		Placement:   PlacementRandom,
		Strategy:    StratRandomRing,
		Seed:        1,
	}
}

// JobResult reports one job.
type JobResult struct {
	ID       int
	Size     int
	Arrived  sim.Time
	Started  sim.Time
	Finished sim.Time
	// ARTimes are the per-iteration AllReduce (communication phase)
	// completion times.
	ARTimes []time.Duration
}

// MeanAR returns the job's mean AllReduce completion time.
func (j *JobResult) MeanAR() time.Duration {
	if len(j.ARTimes) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range j.ARTimes {
		sum += d
	}
	return sum / time.Duration(len(j.ARTimes))
}

// RunResult is a full simulation outcome.
type RunResult struct {
	Config Config
	Jobs   []JobResult
}

// MeanARs returns every job's mean AllReduce time in job-ID order
// (seconds), for speedup comparisons across strategies on the same seed.
func (r *RunResult) MeanARs() []float64 {
	out := make([]float64, len(r.Jobs))
	for i, j := range r.Jobs {
		out[i] = j.MeanAR().Seconds()
	}
	return out
}

// Speedups divides a baseline's per-job mean AR times by this run's
// (elementwise); both runs must use the same seed so job i is identical.
func Speedups(baseline, improved *RunResult) ([]float64, error) {
	if len(baseline.Jobs) != len(improved.Jobs) {
		return nil, fmt.Errorf("cluster: job count mismatch %d vs %d", len(baseline.Jobs), len(improved.Jobs))
	}
	base := baseline.MeanARs()
	imp := improved.MeanARs()
	out := make([]float64, len(base))
	for i := range base {
		if imp[i] <= 0 {
			return nil, fmt.Errorf("cluster: job %d has zero AR time", i)
		}
		out[i] = base[i] / imp[i]
	}
	return out, nil
}

// SpeedupCDF returns the Fig. 11 CDF of per-job speedups.
func SpeedupCDF(baseline, improved *RunResult) ([]metrics.CDFPoint, float64, error) {
	sp, err := Speedups(baseline, improved)
	if err != nil {
		return nil, 0, err
	}
	return metrics.CDF(sp), metrics.Mean(sp), nil
}

// job is the in-flight state of one placed job.
type job struct {
	id    int
	size  int
	gpus  []topo.GPUID
	rings [][]int // per-ring order (rank space)
	// routes[ring][edgeKey] -> path index; nil means ECMP.
	routes map[spec.ConnKey]int
	info   spec.CommInfo // pseudo comm info for the shared policy code
}

type sim11 struct {
	cfg     Config
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	// Three independent streams keep the workload (arrivals, sizes)
	// identical across strategies even though strategies consume
	// different amounts of randomness for rings and placement order.
	arrivalRng *rand.Rand
	placeRng   *rand.Rand
	ringRng    *rand.Rand

	freeGPUs map[topo.GPUID]bool
	queue    []*pendingJob
	active   map[int]*job
	results  []JobResult
	done     *sim.Latch
}

type pendingJob struct {
	id      int
	size    int
	arrived sim.Time
}

// Run executes the simulation and returns per-job results (sorted by job
// ID).
func Run(cfg Config) (*RunResult, error) {
	if cfg.NumJobs <= 0 || cfg.Iterations <= 0 || cfg.ModelBytes <= 0 {
		return nil, fmt.Errorf("cluster: bad config %+v", cfg)
	}
	cl, err := topo.BuildClos(cfg.Topo)
	if err != nil {
		return nil, err
	}
	s := sim.New()
	m := &sim11{
		cfg: cfg, s: s, cluster: cl,
		fabric:     netsim.NewFabric(s, cl.Net),
		arrivalRng: rand.New(rand.NewSource(cfg.Seed)),
		placeRng:   rand.New(rand.NewSource(cfg.Seed + 1)),
		ringRng:    rand.New(rand.NewSource(cfg.Seed + 2)),
		freeGPUs:   make(map[topo.GPUID]bool),
		active:     make(map[int]*job),
		results:    make([]JobResult, cfg.NumJobs),
		done:       sim.NewLatch(cfg.NumJobs),
	}
	for g := range cl.GPUs {
		m.freeGPUs[topo.GPUID(g)] = true
	}

	// Arrival process.
	s.Go("arrivals", func(p *sim.Proc) {
		for i := 0; i < cfg.NumJobs; i++ {
			if i > 0 {
				gap := time.Duration(m.arrivalRng.ExpFloat64() * float64(cfg.MeanArrival))
				p.Sleep(gap)
			}
			size := cfg.JobSizes[m.arrivalRng.Intn(len(cfg.JobSizes))]
			m.queue = append(m.queue, &pendingJob{id: i, size: size, arrived: p.Now()})
			m.results[i] = JobResult{ID: i, Size: size, Arrived: p.Now()}
			m.tryPlace()
		}
	})

	s.Go("join", func(p *sim.Proc) {
		m.done.Wait(p)
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	return &RunResult{Config: cfg, Jobs: m.results}, nil
}

// tryPlace admits queued jobs FIFO while capacity lasts.
func (m *sim11) tryPlace() {
	for len(m.queue) > 0 {
		next := m.queue[0]
		gpus, ok := m.place(next.size)
		if !ok {
			return // head-of-line blocks; capacity frees on job exit
		}
		m.queue = m.queue[1:]
		m.start(next, gpus)
	}
}

// place allocates GPUs under the configured placement policy.
func (m *sim11) place(n int) ([]topo.GPUID, bool) {
	if len(m.freeGPUs) < n {
		return nil, false
	}
	free := make([]topo.GPUID, 0, len(m.freeGPUs))
	for g := range m.freeGPUs {
		free = append(free, g)
	}
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	var chosen []topo.GPUID
	switch m.cfg.Placement {
	case PlacementCompact:
		// Fill rack by rack, racks with the most free GPUs first (ties
		// by rack ID), hosts in order within a rack.
		byRack := make(map[topo.RackID][]topo.GPUID)
		for _, g := range free {
			r := m.cluster.RackOf(m.cluster.HostOfGPU(g))
			byRack[r] = append(byRack[r], g)
		}
		racks := make([]topo.RackID, 0, len(byRack))
		for r := range byRack {
			racks = append(racks, r)
		}
		sort.Slice(racks, func(i, j int) bool {
			a, b := racks[i], racks[j]
			if len(byRack[a]) != len(byRack[b]) {
				return len(byRack[a]) > len(byRack[b])
			}
			return a < b
		})
		for _, r := range racks {
			for _, g := range byRack[r] {
				chosen = append(chosen, g)
				if len(chosen) == n {
					return chosen, true
				}
			}
		}
		return nil, false
	default: // PlacementRandom
		m.placeRng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		return free[:n], true
	}
}

// ringCount returns the rings per job: one per NIC the job can drive per
// host, bounded by the fabric's path diversity.
func (m *sim11) ringCount(gpus []topo.GPUID) int {
	perHost := make(map[topo.HostID]int)
	for _, g := range gpus {
		perHost[m.cluster.HostOfGPU(g)]++
	}
	minPerHost := len(gpus)
	for _, c := range perHost {
		if c < minPerHost {
			minPerHost = c
		}
	}
	n := m.cfg.Topo.Spines
	if minPerHost < n {
		n = minPerHost
	}
	if n < 1 {
		n = 1
	}
	return n
}

// start spawns a placed job.
func (m *sim11) start(pj *pendingJob, gpus []topo.GPUID) {
	for _, g := range gpus {
		delete(m.freeGPUs, g)
	}
	j := &job{id: pj.id, size: pj.size, gpus: gpus}
	j.info = spec.CommInfo{ID: spec.CommID(pj.id + 1), App: spec.AppID(fmt.Sprintf("job%d", pj.id))}
	for rank, g := range gpus {
		j.info.Ranks = append(j.info.Ranks, spec.RankInfo{
			Rank: rank, GPU: g,
			Host: m.cluster.HostOfGPU(g),
			NIC:  m.cluster.NICOfGPU(g),
		})
	}
	nrings := m.ringCount(gpus)
	var base []int
	switch m.cfg.Strategy {
	case StratRandomRing:
		if m.cfg.GroupHostsInRandomRings {
			// Alternative baseline: randomize only the host ordering,
			// keeping each host's ranks contiguous (NCCL's intra-host
			// optimization preserved). Kept for the ablation bench.
			base = randomHostRing(m.ringRng, j.info.Ranks)
		} else {
			// The paper's baseline reading: a fully random rank ring.
			base = m.ringRng.Perm(len(gpus))
		}
	default:
		base = policy.LocalityRing(m.cluster, j.info.Ranks)
	}
	hosts := make([]topo.HostID, len(gpus))
	for i, ri := range j.info.Ranks {
		hosts[i] = ri.Host
	}
	j.rings = spec.StripeChannelOrders(base, hosts, nrings)
	for _, order := range j.rings {
		j.info.Strategy.Channels = append(j.info.Strategy.Channels,
			spec.ChannelSpec{Order: order, Route: spec.RouteECMP})
	}

	m.active[j.id] = j
	m.results[j.id].Started = m.s.Now()
	if m.cfg.Strategy == StratORFFA {
		m.reassignRoutes()
	}
	m.s.Go(fmt.Sprintf("job%d", j.id), func(p *sim.Proc) { m.runJob(p, j) })
}

// reassignRoutes recomputes FFA over all active jobs (invoked on every
// join and exit, as the paper describes).
func (m *sim11) reassignRoutes() {
	var infos []spec.CommInfo
	ids := make([]int, 0, len(m.active))
	for id := range m.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		infos = append(infos, m.active[id].info)
	}
	assign := policy.FFA(m.cluster, infos)
	for _, id := range ids {
		j := m.active[id]
		j.routes = assign[j.info.ID]
	}
}

// runJob executes the job's iterations.
func (m *sim11) runJob(p *sim.Proc, j *job) {
	n := len(j.gpus)
	nrings := len(j.rings)
	// Bytes per directed inter-host ring edge per iteration: each ring
	// carries 1/nrings of the model, and ring AllReduce moves
	// 2(n-1)/n of a ring's bytes over every edge.
	perEdge := float64(m.cfg.ModelBytes) / float64(nrings) * 2 * float64(n-1) / float64(n)

	for it := 0; it < m.cfg.Iterations; it++ {
		if m.cfg.ComputeTime > 0 {
			p.Sleep(m.cfg.ComputeTime)
		}
		start := p.Now()
		// All rings' flows start at one virtual instant; the fabric
		// coalesces the whole batch into a single max-min recompute at
		// the end of the instant (see DESIGN.md §10).
		var flows []netsim.Flow
		for ri, order := range j.rings {
			var group *netsim.Group
			if m.cfg.CoupleRings {
				group = m.fabric.NewGroup()
			}
			for pos := 0; pos < n; pos++ {
				from := j.info.Ranks[order[pos]]
				to := j.info.Ranks[order[(pos+1)%n]]
				if from.Host == to.Host {
					continue
				}
				var route []netsim.LinkID
				if idx, ok := j.routes[spec.ConnKey{Channel: ri, FromRank: from.Rank, ToRank: to.Rank}]; ok {
					paths := m.cluster.PathsBetweenNICs(from.NIC, to.NIC)
					route = paths[idx%len(paths)]
				}
				flows = append(flows, m.fabric.StartFlow(netsim.FlowOpts{
					Src: m.cluster.NICNode(from.NIC), Dst: m.cluster.NICNode(to.NIC),
					Bytes: perEdge,
					Route: route,
					Label: flowLabel(uint64(m.cfg.Seed), j.id, ri, from.Rank, to.Rank),
					Group: group,
				}))
			}
		}
		for _, fl := range flows {
			fl.Done().Wait(p)
		}
		m.results[j.id].ARTimes = append(m.results[j.id].ARTimes, time.Duration(p.Now().Sub(start)))
	}
	m.results[j.id].Finished = p.Now()
	// Release resources and admit queued jobs.
	for _, g := range j.gpus {
		m.freeGPUs[g] = true
	}
	delete(m.active, j.id)
	if m.cfg.Strategy == StratORFFA {
		m.reassignRoutes()
	}
	m.tryPlace()
	m.done.Done(m.s)
}

// randomHostRing groups ranks by host and chains the hosts in random
// order.
func randomHostRing(rng *rand.Rand, ranks []spec.RankInfo) []int {
	byHost := make(map[topo.HostID][]int)
	var hosts []topo.HostID
	seen := make(map[topo.HostID]bool)
	for _, ri := range ranks {
		if !seen[ri.Host] {
			seen[ri.Host] = true
			hosts = append(hosts, ri.Host)
		}
		byHost[ri.Host] = append(byHost[ri.Host], ri.Rank)
	}
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	out := make([]int, 0, len(ranks))
	for _, h := range hosts {
		out = append(out, byHost[h]...)
	}
	return out
}

func flowLabel(seed uint64, jobID, ring, from, to int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{seed, uint64(jobID), uint64(ring), uint64(from), uint64(to)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// newRng is split out for tests that drive placement directly.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
