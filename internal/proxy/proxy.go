// Package proxy implements the MCCS proxy engine (paper §4.2): the per-GPU
// component that bridges high-level communicators to low-level resources.
// A Runner executes one rank of one communicator: it dequeues collective
// requests from the frontend, runs the ring schedule over the transport
// connections, and implements the dynamic reconfiguration protocol of
// Fig. 4 — stall, sequence-number AllGather on the control ring, drain to
// the maximum launched sequence, tear down and rebuild connections under
// the new strategy.
package proxy

import (
	"fmt"
	"sort"
	"time"

	"mccs/internal/collective"
	"mccs/internal/control"
	"mccs/internal/gpusim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// Config is the proxy-engine cost model.
type Config struct {
	// KernelLaunch is charged once per collective per channel (the fused
	// NCCL-style communication kernel launch).
	KernelLaunch time.Duration
	// ConnSetup and ConnTeardown model per-generation connection
	// (re)establishment during init and reconfiguration.
	ConnSetup    time.Duration
	ConnTeardown time.Duration
	// CtrlHopLatency is the per-hop latency of the communicator's
	// control ring.
	CtrlHopLatency time.Duration
	// MinSliceBytes and MaxSlices control intra-step pipelining: each
	// ring step's chunk is cut into up to MaxSlices slices of at least
	// MinSliceBytes, and slices stream independently. This mirrors
	// NCCL's FIFO slots; without it, a one-chunk step pipeline
	// serializes the ring whenever ranks drift out of phase.
	MinSliceBytes int64
	MaxSlices     int
	// LabelSalt perturbs connection ECMP labels, letting experiment
	// harnesses sample the ECMP collision distribution across trials.
	LabelSalt uint64

	// ExecObserver, when non-nil, is invoked at the start of every
	// collective execution with the communicator, rank, connection
	// generation and sequence number. The chaos harness uses it to check
	// the Fig. 4 safety invariant: a given sequence number must execute
	// under the same generation on every rank.
	ExecObserver func(comm spec.CommID, rank, gen int, seq uint64)

	// UnsafeSkipSeqBarrier disables the sequence-number AllGather /
	// drain / completion barrier of the Fig. 4 reconfiguration protocol:
	// a rank switches generations as soon as its own pipeline is idle,
	// without coordinating with peers. It exists ONLY so the chaos
	// harness can prove it detects the protocol's absence (mixed-
	// generation execution, stranded receives, corrupt results). Never
	// set it in a real deployment.
	UnsafeSkipSeqBarrier bool
}

// DefaultConfig returns latencies in the range the paper reports.
func DefaultConfig() Config {
	return Config{
		KernelLaunch:   10 * time.Microsecond,
		ConnSetup:      300 * time.Microsecond,
		ConnTeardown:   100 * time.Microsecond,
		CtrlHopLatency: 15 * time.Microsecond,
		MinSliceBytes:  512 << 10,
		MaxSlices:      8,
	}
}

// OpRequest asks a rank's runner to execute one collective.
type OpRequest struct {
	Op   collective.Op
	Root int
	// Count is the element count: per-rank input elements for AllGather,
	// total buffer elements otherwise.
	Count int64
	// SendBuf is the input buffer. For in-place operation it may equal
	// RecvBuf (AllReduce/ReduceScatter/Broadcast/Reduce); for AllGather
	// it is the rank's contribution.
	SendBuf *gpusim.Buffer
	// RecvBuf is the output buffer.
	RecvBuf *gpusim.Buffer
	// AppEvent must complete before the collective starts (the tenant
	// stream's compute dependency). It is an instance snapshot taken by
	// the shim at issue time, so later re-records of the same stream
	// event (by subsequent collectives) cannot retarget this wait.
	AppEvent gpusim.EventInstance
	// CompleteFire, when non-nil, is invoked at completion; the shim
	// wires it to the communicator event tenant streams wait on.
	CompleteFire func()
	// Done, when non-nil, receives the timing result.
	Done *sim.Future[OpResult]

	// seq is assigned by the runner at launch.
	seq uint64
}

// Sequence returns the sequence number the runner assigned at launch
// (0 until then). The shim reads it from completion callbacks to stamp
// its command-round-trip trace spans.
func (o *OpRequest) Sequence() uint64 { return o.seq }

// OpResult reports one executed collective.
type OpResult struct {
	Seq        uint64
	Op         collective.Op
	Start, End sim.Time
	// Bytes is the output-buffer size (the AlgBW numerator).
	Bytes int64
}

// Elapsed returns the collective's execution time.
func (r OpResult) Elapsed() time.Duration { return r.End.Sub(r.Start) }

// ReconfigRequest carries a new strategy to a rank's runner.
type ReconfigRequest struct {
	Strategy spec.Strategy
	// Done is fired once this rank has switched (use a latch across
	// ranks for full-communicator completion).
	Done *sim.Latch
}

type shutdownMsg struct{}

// Msg is the runner command union: *OpRequest, *ReconfigRequest or
// shutdownMsg.
type Msg any

// Comm is the cluster-wide communicator object inside the service: the
// runners of every rank plus the connection generations they share.
// Everything here runs in scheduler context.
type Comm struct {
	Info    spec.CommInfo
	cfg     Config
	s       *sim.Scheduler
	cluster *topo.Cluster
	engines map[topo.HostID]*transport.Engine
	devices map[topo.GPUID]*gpusim.Device
	ctrl    *control.Ring

	// rec is the flight recorder attached to the scheduler when the
	// communicator was built (possibly nil — every emit is nil-safe).
	rec *trace.Recorder

	// Telemetry handles (tenant-labeled), cached at construction; nil
	// and no-ops when no registry is attached.
	telOps           *telemetry.Counter
	telSteps         *telemetry.Counter
	telReconfigs     *telemetry.Counter
	telBarrierPhases *telemetry.Counter
	telReconfigDur   *telemetry.Histogram

	Runners []*Runner

	// conn generations: gen g is built lazily by the first runner to
	// reach it during reconfiguration.
	gens map[int]*connSet
	// p2p holds communicator-lifetime point-to-point connections (see
	// p2p.go).
	p2p map[[2]int]*transport.Conn

	// free holds released payload snapshots for reuse, most recently
	// released last (see snapshot).
	free [][]float32
}

// connSet is one generation of connections: conns[ch][{from,to}] for both
// ring directions of every channel, plus (when the strategy enables tree
// collectives) the binomial-tree edges and (when the strategy selects
// halving-doubling) the per-channel butterfly edges.
type connSet struct {
	strategy spec.Strategy
	rings    []*collective.Ring
	conns    []map[[2]int]*transport.Conn // per channel: (from,to) -> conn
	tree     map[[2]int]*transport.Conn   // (from,to) -> conn along tree edges
	hd       []map[[2]int]*transport.Conn // per channel: (from,to) -> conn along hd edges
}

// NewComm wires up a communicator: control ring, generation-0 connections
// and one runner per rank. Runner processes are spawned immediately.
func NewComm(
	s *sim.Scheduler,
	cluster *topo.Cluster,
	engines map[topo.HostID]*transport.Engine,
	devices map[topo.GPUID]*gpusim.Device,
	info spec.CommInfo,
	cfg Config,
) (*Comm, error) {
	if err := info.Strategy.Validate(info.NumRanks()); err != nil {
		return nil, err
	}
	ctrl, err := control.NewRing(s, info.NumRanks(), cfg.CtrlHopLatency)
	if err != nil {
		return nil, err
	}
	c := &Comm{
		Info: info, cfg: cfg, s: s, cluster: cluster,
		engines: engines, devices: devices, ctrl: ctrl,
		rec:  trace.Of(s),
		gens: make(map[int]*connSet),
	}
	reg := telemetry.Of(s)
	tenant := telemetry.L("tenant", string(info.App))
	c.telOps = reg.Counter("mccs_proxy_ops_total", "ops", tenant)
	c.telSteps = reg.Counter("mccs_proxy_steps_total", "steps", tenant)
	c.telReconfigs = reg.Counter("mccs_proxy_reconfigs_total", "reconfigurations", tenant)
	c.telBarrierPhases = reg.Counter("mccs_proxy_barrier_phases_total", "phases", tenant)
	c.telReconfigDur = reg.Histogram("mccs_proxy_reconfig_seconds", "seconds", nil, tenant)
	if _, err := c.connsFor(0, info.Strategy); err != nil {
		return nil, err
	}
	for rank := range info.Ranks {
		r := &Runner{
			comm: c, rank: rank,
			dev:   devices[info.Ranks[rank].GPU],
			queue: sim.NewQueue[Msg](),
			execQ: sim.NewQueue[execItem](),
		}
		c.Runners = append(c.Runners, r)
		s.GoDaemon(fmt.Sprintf("proxy:c%d:r%d:ctl", info.ID, rank), r.runControl)
		s.GoDaemon(fmt.Sprintf("proxy:c%d:r%d:exec", info.ID, rank), r.runExec)
	}
	return c, nil
}

// connsFor returns (building if necessary) connection generation gen under
// the given strategy. Reconfiguring runners all converge on the same
// generation number, so the first one to arrive builds for everyone.
func (c *Comm) connsFor(gen int, strategy spec.Strategy) (*connSet, error) {
	if cs, ok := c.gens[gen]; ok {
		return cs, nil
	}
	n := c.Info.NumRanks()
	cs := &connSet{strategy: strategy.Clone()}
	for ci, ch := range strategy.Channels {
		ring, err := collective.NewRing(ch.Order)
		if err != nil {
			return nil, fmt.Errorf("proxy: channel %d: %w", ci, err)
		}
		cs.rings = append(cs.rings, ring)
		m := make(map[[2]int]*transport.Conn, 2*n)
		for pos := 0; pos < n; pos++ {
			from := ring.RankAt(pos)
			for _, to := range []int{ring.Next(from), ring.Prev(from)} {
				if from == to {
					continue // single-rank communicator
				}
				key := [2]int{from, to}
				if _, dup := m[key]; dup {
					continue // n == 2: next == prev
				}
				fi, ti := c.Info.Ranks[from], c.Info.Ranks[to]
				route := strategy.RouteFor(spec.ConnKey{Channel: ci, FromRank: from, ToRank: to})
				label := connLabel(c.cfg.LabelSalt, c.Info.ID, gen, ci, from, to)
				conn, err := c.engines[fi.Host].Connect(c.Info.App, fi.NIC, ti.NIC, route, label)
				if err != nil {
					return nil, fmt.Errorf("proxy: comm %d ch %d conn %d->%d: %w", c.Info.ID, ci, from, to, err)
				}
				m[key] = conn
			}
		}
		cs.conns = append(cs.conns, m)
	}
	if strategy.TreeThreshold > 0 && n > 1 {
		cs.tree = make(map[[2]int]*transport.Conn)
		for rank := 0; rank < n; rank++ {
			for _, peer := range collective.TreePeers(n, rank, 0) {
				key := [2]int{rank, peer}
				if _, dup := cs.tree[key]; dup {
					continue
				}
				fi, ti := c.Info.Ranks[rank], c.Info.Ranks[peer]
				label := connLabel(c.cfg.LabelSalt, c.Info.ID, gen, 1<<20, rank, peer)
				conn, err := c.engines[fi.Host].Connect(c.Info.App, fi.NIC, ti.NIC, spec.RouteECMP, label)
				if err != nil {
					return nil, fmt.Errorf("proxy: comm %d tree conn %d->%d: %w", c.Info.ID, rank, peer, err)
				}
				cs.tree[key] = conn
			}
		}
	}
	if strategy.Algorithm == spec.AlgoHD && n > 1 {
		// The halving-doubling butterfly needs its own edge set: XOR
		// peers, not ring neighbors. Each channel gets its own directed
		// connections so channel route pins apply to it exactly as they
		// do to the rings.
		for ci := range strategy.Channels {
			m := make(map[[2]int]*transport.Conn)
			for rank := 0; rank < n; rank++ {
				for _, peer := range collective.HDPeers(n, rank) {
					key := [2]int{rank, peer}
					if _, dup := m[key]; dup {
						continue
					}
					fi, ti := c.Info.Ranks[rank], c.Info.Ranks[peer]
					route := strategy.RouteFor(spec.ConnKey{Channel: ci, FromRank: rank, ToRank: peer})
					label := connLabel(c.cfg.LabelSalt, c.Info.ID, gen, (1<<21)+ci, rank, peer)
					conn, err := c.engines[fi.Host].Connect(c.Info.App, fi.NIC, ti.NIC, route, label)
					if err != nil {
						return nil, fmt.Errorf("proxy: comm %d hd ch %d conn %d->%d: %w", c.Info.ID, ci, rank, peer, err)
					}
					m[key] = conn
				}
			}
			cs.hd = append(cs.hd, m)
		}
	}
	c.gens[gen] = cs
	return cs, nil
}

// connLabel derives the stable ECMP label of a connection, standing in for
// its transport 5-tuple.
func connLabel(salt uint64, id spec.CommID, gen, ch, from, to int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{salt, uint64(id), uint64(gen), uint64(ch), uint64(from), uint64(to)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// newest returns the newest built connection generation. All runners
// share a generation outside of reconfigurations, so management calls
// act on this one.
func (c *Comm) newest() *connSet {
	maxGen := 0
	for g := range c.gens {
		if g > maxGen {
			maxGen = g
		}
	}
	return c.gens[maxGen]
}

// UpdateRoutes re-pins connections of the current generation immediately
// (no barrier): route-only changes are safe because they affect only
// future messages. This is the FFA/PFA push path. The update is atomic:
// every key is validated before any connection moves, so an error leaves
// every route and the recorded strategy as they were.
func (c *Comm) UpdateRoutes(routes map[spec.ConnKey]int) error {
	cs := c.newest()
	keys := make([]spec.ConnKey, 0, len(routes))
	for k, idx := range routes {
		if k.Channel < 0 || k.Channel >= len(cs.conns) {
			return fmt.Errorf("proxy: route for unknown channel %d", k.Channel)
		}
		conn, ok := cs.conns[k.Channel][[2]int{k.FromRank, k.ToRank}]
		if !ok {
			return fmt.Errorf("proxy: route for unknown conn %d->%d ch %d", k.FromRank, k.ToRank, k.Channel)
		}
		if idx != spec.RouteECMP && (idx < 0 || conn.PathCount() == 0) {
			return fmt.Errorf("proxy: no path %d for conn %d->%d ch %d", idx, k.FromRank, k.ToRank, k.Channel)
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.FromRank != b.FromRank {
			return a.FromRank < b.FromRank
		}
		return a.ToRank < b.ToRank
	})
	for _, k := range keys {
		if err := cs.conns[k.Channel][[2]int{k.FromRank, k.ToRank}].SetRoute(routes[k]); err != nil {
			panic(fmt.Sprintf("proxy: validated route rejected: %v", err))
		}
	}
	// Remember the overrides so future reconfigurations keep them.
	if cs.strategy.Routes == nil {
		cs.strategy.Routes = make(map[spec.ConnKey]int)
	}
	for k, v := range routes {
		cs.strategy.Routes[k] = v
	}
	return nil
}

// ConnRoutes reports, for every inter-host connection of the newest
// generation, the fabric links its messages currently traverse. This is
// the mapping a congestion watcher needs to attribute link load to
// communicators.
func (c *Comm) ConnRoutes() map[spec.ConnKey][]netsim.LinkID {
	cs := c.newest()
	out := make(map[spec.ConnKey][]netsim.LinkID)
	for ci, chConns := range cs.conns {
		for key, conn := range chConns {
			if p := conn.CurrentPath(); p != nil {
				out[spec.ConnKey{Channel: ci, FromRank: key[0], ToRank: key[1]}] = p
			}
		}
	}
	return out
}

// PathCountFor returns the equal-cost path count of one connection of the
// newest generation (0 if unknown).
func (c *Comm) PathCountFor(k spec.ConnKey) int {
	cs := c.newest()
	if k.Channel >= len(cs.conns) {
		return 0
	}
	conn, ok := cs.conns[k.Channel][[2]int{k.FromRank, k.ToRank}]
	if !ok {
		return 0
	}
	return conn.PathCount()
}

// Strategy returns the strategy of the newest connection generation.
func (c *Comm) Strategy() spec.Strategy {
	return c.newest().strategy.Clone()
}

// Runner executes one rank of the communicator. It is split the way the
// paper's proxy engine is: a control loop that launches collectives and
// handles reconfiguration commands, and an in-order execution pipeline
// that actually runs them — so the control path is never blocked behind
// the data path (the property that makes the Fig. 4 barrier deadlock-free:
// a rank that already launched AR1 can still join the AllGather while AR1
// is stalled waiting for peers).
type Runner struct {
	comm  *Comm
	rank  int
	dev   *gpusim.Device
	queue *sim.Queue[Msg]      // control commands from the frontend
	execQ *sim.Queue[execItem] // launched operations, in order

	gen          int
	seq          uint64 // collectives launched
	collInFlight int    // collectives launched but not yet completed
	p2pInFlight  int    // p2p ops launched but not yet completed
	idleWQ       sim.WaitQueue

	// pendingReconfigs stashes reconfig requests that arrive while a
	// reconfiguration drain is already in progress.
	pendingReconfigs []*ReconfigRequest
	stopped          bool
}

// Enqueue delivers a message to the runner's command queue. Call from
// scheduler context; the frontend applies its command-path latency before
// calling.
func (r *Runner) Enqueue(m Msg) { r.queue.Push(r.comm.s, m) }

// Seq returns the number of collectives launched so far.
func (r *Runner) Seq() uint64 { return r.seq }

// Generation returns the current connection generation.
func (r *Runner) Generation() int { return r.gen }

// Quiescent reports whether the runner has no queued or in-flight work:
// empty command queue, empty execution pipeline, no outstanding
// collectives or P2P ops, and no stashed reconfigurations. The chaos
// harness asserts this for every runner once the simulation drains.
func (r *Runner) Quiescent() bool {
	return r.queue.Len() == 0 && r.execQ.Len() == 0 &&
		r.collInFlight == 0 && r.p2pInFlight == 0 &&
		len(r.pendingReconfigs) == 0
}

// runControl is the command loop: it launches collectives onto the
// execution pipeline and runs the reconfiguration protocol.
func (r *Runner) runControl(p *sim.Proc) {
	for !r.stopped {
		switch m := r.queue.Pop(p).(type) {
		case *OpRequest:
			r.launch(m)
		case *P2PRequest:
			r.launchP2P(m)
		case *ReconfigRequest:
			r.reconfigure(p, m)
			for len(r.pendingReconfigs) > 0 && !r.stopped {
				next := r.pendingReconfigs[0]
				r.pendingReconfigs = r.pendingReconfigs[1:]
				r.reconfigure(p, next)
			}
		case shutdownMsg:
			r.stopped = true
		default:
			panic(fmt.Sprintf("proxy: unknown message %T", m))
		}
	}
}

// execItem is anything the execution pipeline can run: a collective
// (*OpRequest) or a point-to-point operation (*P2PRequest).
type execItem any

// launch assigns the next sequence number and hands the op to the
// execution pipeline.
func (r *Runner) launch(op *OpRequest) {
	r.seq++
	op.seq = r.seq
	r.collInFlight++
	r.execQ.Push(r.comm.s, op)
}

// launchP2P hands a P2P op to the pipeline without advancing the
// collective sequence number (see p2p.go for why).
func (r *Runner) launchP2P(req *P2PRequest) {
	r.p2pInFlight++
	r.execQ.Push(r.comm.s, req)
}

// runExec executes launched operations in order.
func (r *Runner) runExec(p *sim.Proc) {
	for {
		switch item := r.execQ.Pop(p).(type) {
		case *OpRequest:
			r.execute(p, item)
			r.collInFlight--
		case *P2PRequest:
			r.executeP2P(p, item)
			r.p2pInFlight--
		default:
			panic(fmt.Sprintf("proxy: unknown exec item %T", item))
		}
		r.idleWQ.WakeAll(r.comm.s, nil)
	}
}

// waitCollIdle blocks until every launched collective has completed. P2P
// operations are deliberately excluded: their connections survive
// reconfigurations, so an in-flight pairwise transfer can safely straddle
// the strategy switch — and waiting for one could deadlock the barrier,
// since its matching half may be queued behind the peer's own
// reconfiguration.
func (r *Runner) waitCollIdle(p *sim.Proc) {
	for r.collInFlight > 0 {
		r.idleWQ.Wait(p)
	}
}

// Shutdown stops the runner after it drains messages ahead of the marker.
func (r *Runner) Shutdown() { r.Enqueue(shutdownMsg{}) }

// Destroy shuts down every runner and closes the communicator's
// connections. Like ncclCommDestroy, callers must have completed all
// outstanding operations first — destroying a communicator with
// collectives in flight strands the peers.
func (c *Comm) Destroy() {
	for _, r := range c.Runners {
		r.Shutdown()
	}
	for _, cs := range c.gens {
		for _, chConns := range cs.conns {
			for _, conn := range chConns {
				conn.Close()
			}
		}
		for _, conn := range cs.tree {
			conn.Close()
		}
		for _, chConns := range cs.hd {
			for _, conn := range chConns {
				conn.Close()
			}
		}
	}
	for _, conn := range c.p2p {
		conn.Close()
	}
}

// emitPhase counts one completed reconfiguration barrier phase and
// records it as a span when barrier tracing is on.
func (r *Runner) emitPhase(p *sim.Proc, code int32, start sim.Time) {
	r.comm.telBarrierPhases.Inc()
	if !r.comm.rec.Enabled(trace.KindBarrier) {
		return
	}
	r.comm.rec.Emit(trace.Span{
		Kind: trace.KindBarrier, Op: code,
		Start: start, End: p.Now(),
		Host: int32(r.comm.Info.Ranks[r.rank].Host),
		GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
		Comm: int32(r.comm.Info.ID), Rank: int32(r.rank),
		Peer: -1, Channel: -1, Step: -1,
		Gen: int32(r.gen), Seq: r.seq,
		Flow: -1, Src: -1, Dst: -1,
	})
}

// reconfigure implements the Fig. 4 protocol for this rank.
func (r *Runner) reconfigure(p *sim.Proc, req *ReconfigRequest) {
	if err := req.Strategy.Validate(r.comm.Info.NumRanks()); err != nil {
		panic(fmt.Sprintf("proxy: reconfigure with bad strategy: %v", err))
	}
	reconfigStart := p.Now()
	if !r.comm.cfg.UnsafeSkipSeqBarrier {
		// 1. Exchange last-launched sequence numbers on the control ring.
		//    This stalls new launches locally (we are not reading the
		//    command queue) without any fast-path cost when no reconfig is
		//    pending.
		t0 := p.Now()
		vals := r.comm.ctrl.AllGather(p, r.rank, int64(r.seq))
		maxSeq := uint64(control.Max(vals))
		r.emitPhase(p, trace.PhaseSeqExchange, t0)

		// 2. Drain-launch: collectives that peers already launched must
		//    run under the old configuration. The frontend will deliver
		//    them; non-op messages that arrive meanwhile are stashed.
		t0 = p.Now()
		for r.seq < maxSeq {
			switch m := r.queue.Pop(p).(type) {
			case *OpRequest:
				r.launch(m)
			case *P2PRequest:
				r.launchP2P(m)
			case *ReconfigRequest:
				r.pendingReconfigs = append(r.pendingReconfigs, m)
			case shutdownMsg:
				r.stopped = true
				return
			}
		}
		r.emitPhase(p, trace.PhaseDrain, t0)
	}

	// 3. Completion barrier: wait for this rank's execution pipeline to
	//    drain, then AllGather again. Local completion means this rank's
	//    receives are done, but its final sends may still be in flight to
	//    peers; closing connections is safe only once every rank has
	//    finished op maxSeq, which the second AllGather guarantees (it
	//    doubles as the teardown handshake).
	//
	//    Point-to-point operations are not part of the barrier: any
	//    queued P2P requests are launched now (their connections are
	//    communicator-lifetime, so they may straddle the switch), and
	//    the idle wait below covers collectives only.
	barrierStart := p.Now()
	var stashed []*OpRequest
	for {
		m, ok := r.queue.TryPop()
		if !ok {
			break
		}
		switch m := m.(type) {
		case *P2PRequest:
			r.launchP2P(m)
		case *OpRequest:
			stashed = append(stashed, m)
		case *ReconfigRequest:
			r.pendingReconfigs = append(r.pendingReconfigs, m)
		case shutdownMsg:
			r.stopped = true
			return
		}
	}
	r.waitCollIdle(p)
	if !r.comm.cfg.UnsafeSkipSeqBarrier {
		r.comm.ctrl.AllGather(p, r.rank, int64(r.seq))
	}
	r.emitPhase(p, trace.PhaseCompletion, barrierStart)

	// 4. Tear down this rank's send connections and switch to the next
	//    generation, rebuilding connections under the new strategy.
	tearStart := p.Now()
	old := r.comm.gens[r.gen]
	for _, chConns := range old.conns {
		for key, conn := range chConns {
			if key[0] == r.rank {
				conn.Close()
			}
		}
	}
	for key, conn := range old.tree {
		if key[0] == r.rank {
			conn.Close()
		}
	}
	for _, chConns := range old.hd {
		for key, conn := range chConns {
			if key[0] == r.rank {
				conn.Close()
			}
		}
	}
	p.Sleep(r.comm.cfg.ConnTeardown)
	r.emitPhase(p, trace.PhaseTeardown, tearStart)
	rebuildStart := p.Now()
	r.gen++
	if _, err := r.comm.connsFor(r.gen, req.Strategy); err != nil {
		panic(fmt.Sprintf("proxy: rebuilding connections: %v", err))
	}
	p.Sleep(r.comm.cfg.ConnSetup)
	r.emitPhase(p, trace.PhaseRebuild, rebuildStart)
	r.comm.telReconfigs.Inc()
	r.comm.telReconfigDur.Observe(p.Now().Sub(reconfigStart).Seconds())
	// Replay collectives that arrived during the drain under the new
	// configuration, in arrival order.
	for _, op := range stashed {
		r.launch(op)
	}
	if req.Done != nil {
		req.Done.Done(r.comm.s)
	}
}
