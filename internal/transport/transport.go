// Package transport implements the MCCS transport engine (paper §4.2): the
// component that moves collective bytes between hosts. It owns the
// mechanisms the provider's policies rely on — explicit route pinning per
// connection (the RoCEv2 UDP-source-port / policy-based-routing trick,
// §5 "Management") and time-window traffic gating (TS).
//
// A Conn is one directed point-to-point connection between two ranks'
// NICs, the analogue of an RDMA queue pair. Sends are asynchronous: bytes
// become a fabric flow (or an intra-host transfer) and a Delivery is
// pushed to the receiver when the transfer and its latency complete.
//
// The per-message path allocates nothing in steady state. A Conn keeps
// its messages in a ring buffer indexed by sequence number, from Send
// until Recv hands them out, and drives every timed step of a message —
// the TS-gated start, the transfer's completion, the delivery latency —
// as a closure-free sim.Handler event on the Conn whose argument is the
// message's sequence number (see Conn.Fire). Fabric flows come from the
// fabric's pool and report completion through the same handler.
package transport

import (
	"fmt"
	"time"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/telemetry"
	"mccs/internal/topo"
	"mccs/internal/trace"
)

// Config sets the transport cost model.
type Config struct {
	// NetLatency is the fixed per-message inter-host latency (RDMA op
	// issue + propagation), added after the flow completes.
	NetLatency time.Duration
	// IntraLatency is the per-message latency of intra-host channels.
	IntraLatency time.Duration
	// IntraBps is the intra-host channel bandwidth (shared host memory /
	// NVLink class), bytes per second.
	IntraBps float64
	// UnserializedSends disables the per-connection FIFO and lets every
	// message enter the fabric immediately (processor sharing). Kept
	// only as an ablation: without serialization, concurrent slices of
	// one connection complete in a cluster and a phase-skewed ring
	// degenerates into a wave (see BenchmarkAblationConnSerialization).
	UnserializedSends bool
}

// DefaultConfig mirrors the paper's testbed datapath constants.
func DefaultConfig(intraBps float64) Config {
	return Config{
		NetLatency:   6 * time.Microsecond,
		IntraLatency: 3 * time.Microsecond,
		IntraBps:     intraBps,
	}
}

// Delivery is one received message.
type Delivery struct {
	Bytes int64
	// Data is the sender's snapshot of the sent elements when its buffer
	// was backed; nil otherwise. The transport passes the slice through
	// untouched and drops its reference when Recv returns it, so the
	// receiver owns it from then on: the proxy folds it into its buffer
	// and recycles it as a later message's snapshot. Correctness tests
	// and the small-collectives benchmark run backed, the figure
	// benchmarks unbacked.
	Data []float32
	// Seq is the sender-side message sequence number on this Conn.
	Seq uint64
}

// Engine is the per-host transport engine. It is shared by all
// applications on the host; per-application traffic gates enforce TS
// schedules, which is exactly the enforcement point the paper describes
// ("transport engines in MCCS service then allow other applications to
// send traffic only when the prioritized application is idle").
type Engine struct {
	s       *sim.Scheduler
	cluster *topo.Cluster
	fabric  *netsim.Fabric
	cfg     Config
	host    topo.HostID

	gates map[spec.AppID]*Gate

	// perturb, when non-nil, returns an extra delay applied before each
	// message enters its channel (after TS gating). See SetSendPerturb.
	perturb func(bytes int64) time.Duration

	// stats
	messagesSent int64
	bytesSent    int64

	// Telemetry handles: per-host counters cached at construction,
	// per-tenant transmit counters created on first send by that tenant
	// (setup-time allocation; the send path itself only does nil-safe
	// handle updates).
	telMessages *telemetry.Counter
	telOOO      *telemetry.Counter
	telReg      *telemetry.Registry
	telHostName string
	telTxByApp  map[spec.AppID]*telemetry.Counter
}

// NewEngine creates the transport engine for one host.
func NewEngine(s *sim.Scheduler, cluster *topo.Cluster, fabric *netsim.Fabric, host topo.HostID, cfg Config) *Engine {
	if cfg.IntraBps <= 0 {
		cfg.IntraBps = cluster.IntraHostBps
	}
	e := &Engine{
		s: s, cluster: cluster, fabric: fabric, cfg: cfg, host: host,
		gates: make(map[spec.AppID]*Gate),
	}
	if reg := telemetry.Of(s); reg != nil {
		e.telReg = reg
		e.telHostName = cluster.Hosts[host].Name
		e.telMessages = reg.Counter("mccs_transport_messages_total", "messages",
			telemetry.L("host", e.telHostName))
		e.telOOO = reg.Counter("mccs_transport_ooo_deliveries_total", "messages",
			telemetry.L("host", e.telHostName))
		e.telTxByApp = make(map[spec.AppID]*telemetry.Counter)
	}
	return e
}

// txCounter returns the per-tenant transmit-bytes counter for app,
// creating it on first use. Nil when telemetry is off.
func (e *Engine) txCounter(app spec.AppID) *telemetry.Counter {
	if e.telReg == nil {
		return nil
	}
	c, ok := e.telTxByApp[app]
	if !ok {
		c = e.telReg.Counter("mccs_transport_tx_bytes_total", "bytes",
			telemetry.L("host", e.telHostName), telemetry.L("tenant", string(app)))
		e.telTxByApp[app] = c
	}
	return c
}

// Gate returns the traffic gate for an app, creating it on first use.
func (e *Engine) Gate(app spec.AppID) *Gate {
	g, ok := e.gates[app]
	if !ok {
		g = &Gate{}
		e.gates[app] = g
	}
	return g
}

// SetSendPerturb installs a fault-injection hook: fn is consulted once per
// message (in deterministic scheduler order) and its result delays the
// message's entry into the fabric or intra-host channel. Message order on
// each connection is preserved — the delay stalls the connection's FIFO,
// modeling NIC scheduling jitter or a congested PCIe root complex. A nil
// fn removes the hook. fn must be deterministic for reproducible runs.
func (e *Engine) SetSendPerturb(fn func(bytes int64) time.Duration) { e.perturb = fn }

// MessagesSent and BytesSent expose engine counters for tests and traces.
func (e *Engine) MessagesSent() int64 { return e.messagesSent }
func (e *Engine) BytesSent() int64    { return e.bytesSent }

// NewFlowGroup returns a fresh coflow group on the engine's fabric; the
// proxy engine couples the flows of one ring step with it.
func (e *Engine) NewFlowGroup() *netsim.Group { return e.fabric.NewGroup() }

// Conn is one directed connection. It is created by the sending host's
// engine; the receiving proxy holds the same object and calls Recv.
type Conn struct {
	eng  *Engine
	app  spec.AppID
	gate *Gate // the app's traffic gate on the sending host
	src  topo.NICID
	dst  topo.NICID
	intr bool // both endpoints on one host

	// route is the pinned fabric path; nil means ECMP by label.
	route []netsim.LinkID
	label uint64

	closed bool

	// msgs holds every message from SendTagged until Recv returns it, at
	// index seq & (len(msgs)-1); the live window is (recvSeq, sendSeq].
	// Its length is a power of two, doubled when the window outgrows it.
	// Events carry a message's seq rather than the message, so each one
	// finds its own message even when a fuzzing Picker reorders
	// same-instant events.
	msgs    []pendingSend
	sendSeq uint64 // last message queued by SendTagged
	recvSeq uint64 // last message returned by Recv

	// startSeq is the last message that left the send FIFO. Messages
	// (startSeq, sendSeq] are queued: a real connection (RDMA QP)
	// transmits one message at a time in order. Without this, concurrent
	// slices of one connection would processor-share the path and
	// complete in a cluster, destroying the slice-level pipelining the
	// collective engine depends on.
	startSeq uint64
	inFlight bool

	// inbox carries the seqs of delivered messages in delivery order;
	// Recv re-sequences them. stashed counts the messages delivered ahead
	// of their turn, which wait in msgs (see Recv).
	inbox   *sim.Queue[uint64]
	stashed int

	// telTx is the per-tenant transmit counter, resolved lazily on the
	// first send (nil, and a no-op, when telemetry is off).
	telTx *telemetry.Counter
}

// pendingSend is one message's slot in Conn.msgs.
type pendingSend struct {
	bytes   int64
	data    []float32
	group   *netsim.Group
	tag     trace.FlowTag
	txStart sim.Time // intra-host transfer start, for the KindXfer span
	stashed bool     // delivered ahead of its turn, waiting for Recv
}

// Conn event kinds. A Conn is the sim.Handler for its own timed steps;
// the event argument packs the message's seq above the kind.
const (
	evStart    = iota // TS gate or send perturbation elapsed: transmit
	evXferDone        // intra-host transfer finished
	evFlowDone        // fabric flow finished
	evDeliver         // per-message latency elapsed: hand to the receiver

	evKindBits = 2
	evKindMask = 1<<evKindBits - 1
)

func connEvent(seq, kind uint64) uint64 { return seq<<evKindBits | kind }

// Connect creates a connection from srcNIC (on this engine's host) to
// dstNIC. routeIdx picks among the equal-cost paths (spec.RouteECMP to let
// ECMP hash by label). The connection is intra-host if both NICs share a
// host; its traffic then never touches the fabric.
func (e *Engine) Connect(app spec.AppID, src, dst topo.NICID, routeIdx int, label uint64) (*Conn, error) {
	if e.cluster.NICs[src].Host != e.host {
		return nil, fmt.Errorf("transport: source NIC %d is not on host %d", src, e.host)
	}
	c := &Conn{
		eng: e, app: app, gate: e.Gate(app), src: src, dst: dst,
		intr:  e.cluster.NICs[src].Host == e.cluster.NICs[dst].Host,
		label: label,
		inbox: sim.NewQueue[uint64](),
	}
	if !c.intr {
		if err := c.setRoute(routeIdx); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Conn) setRoute(routeIdx int) error {
	if routeIdx == spec.RouteECMP {
		c.route = nil
		return nil
	}
	paths := c.eng.cluster.PathsBetweenNICs(c.src, c.dst)
	if len(paths) == 0 {
		return fmt.Errorf("transport: no path between NICs %d and %d", c.src, c.dst)
	}
	c.route = paths[routeIdx%len(paths)]
	return nil
}

// SetRoute re-pins the connection to another equal-cost path. Future sends
// use the new route; in-flight flows are unaffected. This is the immediate
// (non-barrier) route update used by FFA/PFA pushes.
func (c *Conn) SetRoute(routeIdx int) error {
	if c.intr {
		return nil
	}
	return c.setRoute(routeIdx)
}

// Intra reports whether this is an intra-host connection.
func (c *Conn) Intra() bool { return c.intr }

// CurrentPath returns the fabric links this connection's messages traverse
// right now: the pinned route, or the deterministic ECMP choice for its
// label. Intra-host connections return nil. The remediation engine uses
// this to map a degraded link back to communicator connections.
func (c *Conn) CurrentPath() []netsim.LinkID {
	if c.intr {
		return nil
	}
	if c.route != nil {
		return c.route
	}
	src := c.eng.cluster.NICNode(c.src)
	dst := c.eng.cluster.NICNode(c.dst)
	paths := c.eng.cluster.Net.PathsBetween(src, dst)
	if len(paths) == 0 {
		return nil
	}
	return paths[netsim.ECMPIndex(src, dst, c.label, len(paths))]
}

// PathCount returns the number of equal-cost paths available to this
// connection (1 for intra-host).
func (c *Conn) PathCount() int {
	if c.intr {
		return 1
	}
	return len(c.eng.cluster.PathsBetweenNICs(c.src, c.dst))
}

// Close tears the connection down: further sends panic. Deliveries already
// in flight still arrive, so a receiver draining its inbox cannot deadlock
// on a racing teardown (the reconfiguration protocol additionally barriers
// before closing, so in practice nothing is in flight here).
func (c *Conn) Close() { c.closed = true }

// Send transmits bytes (with optional data snapshot) to the peer. It is
// asynchronous; the receiver's Recv unblocks once the transfer completes.
// group optionally couples the underlying fabric flow with the other flows
// of the same ring step (lock-step pacing).
func (c *Conn) Send(bytes int64, data []float32, group *netsim.Group) {
	c.SendTagged(bytes, data, group, trace.FlowTag{})
}

// SendTagged is Send with a flight-recorder tag identifying the
// collective step the message carries; the tag rides the fabric flow
// into the trace so bottleneck attribution can join network behaviour
// back to collectives. The zero tag marks untagged traffic.
func (c *Conn) SendTagged(bytes int64, data []float32, group *netsim.Group, tag trace.FlowTag) {
	if c.closed {
		panic("transport: send on closed connection")
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("transport: send of %d bytes", bytes))
	}
	c.sendSeq++
	c.eng.messagesSent++
	c.eng.bytesSent += bytes
	c.eng.telMessages.Inc()
	if c.telTx == nil && c.eng.telReg != nil {
		c.telTx = c.eng.txCounter(c.app)
	}
	c.telTx.Add(bytes)
	if c.sendSeq-c.recvSeq > uint64(len(c.msgs)) {
		c.growMsgs()
	}
	*c.msg(c.sendSeq) = pendingSend{bytes: bytes, data: data, group: group, tag: tag}
	if c.eng.cfg.UnserializedSends {
		// Ablation mode: transmit everything concurrently.
		for c.startSeq < c.sendSeq {
			c.startNext()
		}
		return
	}
	if !c.inFlight {
		c.startNext()
	}
}

// msg returns message seq's slot in the ring.
func (c *Conn) msg(seq uint64) *pendingSend {
	return &c.msgs[seq&uint64(len(c.msgs)-1)]
}

// growMsgs doubles the message ring, re-placing the live window
// (recvSeq, sendSeq) — the message being queued is stored by the caller.
func (c *Conn) growMsgs() {
	n := 2 * len(c.msgs)
	if n == 0 {
		n = 1
	}
	msgs := make([]pendingSend, n)
	for seq := c.recvSeq + 1; seq < c.sendSeq; seq++ {
		msgs[seq&uint64(n-1)] = *c.msg(seq)
	}
	c.msgs = msgs
}

// startNext takes the next queued message out of the send FIFO,
// respecting the app's TS traffic gate (and any send perturbation) at
// each message start.
func (c *Conn) startNext() {
	if c.startSeq == c.sendSeq {
		c.inFlight = false
		return
	}
	c.inFlight = true
	c.startSeq++
	seq := c.startSeq
	e := c.eng

	// TS gating: traffic may only start inside the app's allowed windows.
	now := e.s.Now()
	at := c.gate.NextAllowed(now)
	if e.perturb != nil {
		if d := e.perturb(c.msg(seq).bytes); d > 0 {
			if at < now {
				at = now
			}
			at = at.Add(d)
		}
	}
	if at <= now {
		c.transmit(seq)
	} else {
		e.s.CallAt(at, c, connEvent(seq, evStart))
	}
}

// transmit puts message seq on the wire: an intra-host transfer or a
// fabric flow, whose completion comes back as an event on the Conn.
func (c *Conn) transmit(seq uint64) {
	e := c.eng
	m := c.msg(seq)
	if c.intr {
		// Intra-host channel: fixed bandwidth, no fabric contention
		// (host shared-memory / NVLink is private to the host).
		m.txStart = e.s.Now()
		dur := time.Duration(float64(m.bytes) / e.cfg.IntraBps * float64(time.Second))
		e.s.CallAfter(dur, c, connEvent(seq, evXferDone))
		return
	}
	e.fabric.StartFlow(netsim.FlowOpts{
		Src:   e.cluster.NICNode(c.src),
		Dst:   e.cluster.NICNode(c.dst),
		Bytes: float64(m.bytes),
		Route: c.route,
		// The label is per-connection, not per-message: an RDMA
		// connection keeps one 5-tuple, so ECMP pins all its messages to
		// one path. That stickiness is what makes collisions persistent
		// — and what MCCS route pinning fixes.
		Label:   c.label,
		Group:   m.group,
		Tag:     m.tag,
		OnDone:  c,
		DoneArg: connEvent(seq, evFlowDone),
	})
}

// Fire implements sim.Handler: it runs the Conn's timed datapath steps,
// arg being a message seq packed with an event kind. Only the Conn's own
// events may call it.
func (c *Conn) Fire(arg uint64) {
	seq := arg >> evKindBits
	e := c.eng
	switch arg & evKindMask {
	case evStart:
		c.transmit(seq)
	case evXferDone:
		if rec := trace.Of(e.s); rec.Enabled(trace.KindXfer) {
			m := c.msg(seq)
			rec.Emit(trace.Span{
				Kind: trace.KindXfer, Op: m.tag.Op,
				Start: m.txStart, End: e.s.Now(),
				Host: int32(e.host), GPU: -1,
				Comm: m.tag.Comm, Rank: m.tag.From, Peer: m.tag.To,
				Channel: m.tag.Channel, Gen: m.tag.Gen, Step: m.tag.Step,
				Seq:   m.tag.Seq,
				Bytes: m.bytes,
				Src:   int32(c.src), Dst: int32(c.dst),
			})
		}
		e.s.CallAfter(e.cfg.IntraLatency, c, connEvent(seq, evDeliver))
		c.startNext()
	case evFlowDone:
		e.s.CallAfter(e.cfg.NetLatency, c, connEvent(seq, evDeliver))
		c.startNext()
	case evDeliver:
		c.inbox.Push(e.s, seq)
	}
}

// Recv blocks until the next delivery on the connection, in send order.
//
// Delivery events for back-to-back tiny messages can land at the same
// virtual instant (sub-nanosecond transmit times truncate to zero), and
// the scheduler is free to fire same-instant events in any order — the
// chaos harness's schedule fuzzer exercises exactly that freedom. A real
// connection (RDMA QP, TCP) still delivers in order, so Recv re-sequences
// by message sequence number instead of trusting event order: a message
// delivered ahead of its turn stays in the ring, marked stashed.
func (c *Conn) Recv(p *sim.Proc) Delivery {
	for {
		if c.stashed > 0 && c.msg(c.recvSeq+1).stashed {
			c.stashed--
			return c.take()
		}
		seq := c.inbox.Pop(p)
		if seq == c.recvSeq+1 {
			return c.take()
		}
		c.msg(seq).stashed = true
		c.stashed++
		// A stashed delivery is the simulation's analogue of an
		// out-of-order arrival the receiver had to re-sequence — the
		// "retries" signal of a real transport.
		c.eng.telOOO.Inc()
	}
}

// take hands out message recvSeq+1 and frees its ring slot.
func (c *Conn) take() Delivery {
	c.recvSeq++
	m := c.msg(c.recvSeq)
	d := Delivery{Bytes: m.bytes, Data: m.data, Seq: c.recvSeq}
	*m = pendingSend{}
	return d
}

// Pending returns the number of undelivered messages queued on the
// connection.
func (c *Conn) Pending() int { return c.inbox.Len() + c.stashed }
