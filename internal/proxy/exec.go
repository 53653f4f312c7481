package proxy

import (
	"fmt"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// execute runs one collective to completion for this rank. Execution is
// lock-step with the peers through the data dependencies of the ring:
// each step's receive blocks until the predecessor's send completes.
func (r *Runner) execute(p *sim.Proc, op *OpRequest) {
	start := p.Now()
	op.AppEvent.WaitHost(p)
	if op.Count <= 0 {
		panic(fmt.Sprintf("proxy: collective with count %d", op.Count))
	}
	n := r.comm.Info.NumRanks()
	cs := r.comm.gens[r.gen]
	if obs := r.comm.cfg.ExecObserver; obs != nil {
		obs(r.comm.Info.ID, r.rank, r.gen, op.seq)
	}

	r.initialCopy(p, op, n)

	outBytes := op.Count * 4
	if op.Op == collective.AllGather {
		outBytes *= int64(n)
	}

	nch := len(cs.conns)
	switch {
	case n <= 1:
		// Single-rank communicator: the initial copy is the whole op.
	case r.useTree(op, cs, outBytes):
		r.runTree(p, op, cs)
	case r.useHD(op, cs):
		if nch == 1 {
			r.runHD(p, op, cs, 0)
		} else {
			latch := sim.NewLatch(nch)
			for ch := 0; ch < nch; ch++ {
				ch := ch
				r.comm.s.Go(fmt.Sprintf("proxy:c%d:r%d:hd%d", r.comm.Info.ID, r.rank, ch), func(p2 *sim.Proc) {
					r.runHD(p2, op, cs, ch)
					latch.Done(r.comm.s)
				})
			}
			latch.Wait(p)
		}
	default:
		if nch == 1 {
			r.runChannel(p, op, cs, 0)
		} else {
			latch := sim.NewLatch(nch)
			for ch := 0; ch < nch; ch++ {
				ch := ch
				r.comm.s.Go(fmt.Sprintf("proxy:c%d:r%d:ch%d", r.comm.Info.ID, r.rank, ch), func(p2 *sim.Proc) {
					r.runChannel(p2, op, cs, ch)
					latch.Done(r.comm.s)
				})
			}
			latch.Wait(p)
		}
	}

	res := OpResult{Seq: op.seq, Op: op.Op, Start: start, End: p.Now(), Bytes: outBytes}
	r.comm.telOps.Inc()
	if op.CompleteFire != nil {
		op.CompleteFire()
	}
	// The op-lifecycle span doubles as the management-plane record: the
	// Deployment.CommTrace API and the TS policy read it back out of the
	// recorder. Span is a value struct, so this emits without allocating
	// — and is a branch-and-return when recording is off.
	r.comm.rec.Emit(trace.Span{
		Kind: trace.KindOp, Op: int32(op.Op),
		Start: start, End: p.Now(),
		Host: int32(r.comm.Info.Ranks[r.rank].Host),
		GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
		Comm: int32(r.comm.Info.ID), Rank: int32(r.rank),
		Peer: -1, Channel: -1, Step: -1,
		Gen: int32(r.gen), Seq: op.seq, Bytes: outBytes,
		Flow: -1, Src: -1, Dst: -1,
	})
	if op.Done != nil {
		op.Done.Set(r.comm.s, res)
	}
}

// initialCopy stages input data into the working (output) buffer:
// out-of-place collectives copy the whole input; AllGather copies the
// rank's contribution into its own output span.
func (r *Runner) initialCopy(p *sim.Proc, op *OpRequest, n int) {
	switch op.Op {
	case collective.AllGather:
		if op.SendBuf == nil {
			panic("proxy: AllGather without send buffer")
		}
		p.Sleep(r.dev.TransferTime(op.Count*4, 1))
		if op.SendBuf.Backed() && op.RecvBuf.Backed() {
			dst := op.RecvBuf.Data()[int64(r.rank)*op.Count : (int64(r.rank)+1)*op.Count]
			copy(dst, op.SendBuf.Data()[:op.Count])
		}
	default:
		if op.SendBuf != nil && op.SendBuf != op.RecvBuf {
			p.Sleep(r.dev.TransferTime(op.Count*4, 1))
			if op.SendBuf.Backed() && op.RecvBuf.Backed() {
				copy(op.RecvBuf.Data()[:op.Count], op.SendBuf.Data()[:op.Count])
			}
		}
	}
}

// span returns elements [off, off+n) of buf, or nil when buf is absent
// or unbacked.
func span(buf *gpusim.Buffer, off, n int64) []float32 {
	if buf == nil || !buf.Backed() {
		return nil
	}
	return buf.Data()[off : off+n]
}

// snapshot copies src into a payload buffer for one message, reusing the
// most recently released buffer of the communicator (growing it when it
// is too small); a nil src (unbacked sender) sends no payload. The
// receiving runner hands the buffer back through consume, so a steady
// stream of backed collectives recycles a fixed set of buffers, the way
// NCCL reuses its per-channel staging FIFOs, instead of allocating per
// message. Sender and receiver of every connection are runners of this
// communicator, and runners only execute in scheduler context, so the
// free list needs no lock.
func (c *Comm) snapshot(src []float32) []float32 {
	if src == nil {
		return nil
	}
	var buf []float32
	if n := len(c.free); n > 0 {
		buf = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	}
	return append(buf[:0], src...)
}

// consume folds a received payload into dst, summing when reduce and
// copying otherwise, and then releases the snapshot to the free list:
// this is its last read. dst is nil when this rank's buffer is unbacked,
// and an unbacked sender's delivery carries no snapshot.
func (r *Runner) consume(dst []float32, d transport.Delivery, reduce bool) {
	if d.Data == nil {
		return
	}
	if dst != nil {
		if len(d.Data) != len(dst) {
			panic(fmt.Sprintf("proxy: payload size mismatch: got %d elems, want %d", len(d.Data), len(dst)))
		}
		src := d.Data[:len(dst)]
		if reduce {
			for i := range dst {
				dst[i] += src[i]
			}
		} else {
			copy(dst, src)
		}
	}
	r.comm.free = append(r.comm.free, d.Data)
}

// regionAt returns the element offset and length of data region i of
// op (one of n ranks) over the output buffer.
func regionAt(op *OpRequest, n, i int) (start, length int64) {
	switch op.Op {
	case collective.AllGather:
		return int64(i) * op.Count, op.Count
	case collective.Broadcast, collective.Reduce:
		return 0, op.Count
	default:
		return collective.Region(op.Count, n, i)
	}
}

// subRange returns part i of the ceil-balanced parts-way split of
// [off, off+length), and a zero length past the last part. Channels
// split every region this way, and each channel's chunk is split into
// pipeline slices the same way.
func subRange(off, length int64, parts, i int) (int64, int64) {
	if i >= parts {
		return 0, 0
	}
	start, l := collective.Region(length, parts, i)
	return off + start, l
}

// useTree reports whether this op should run on the binomial tree: the
// strategy enables trees, the op is a dense rooted collective at root 0
// (the provisioned tree), and it is below the size threshold.
func (r *Runner) useTree(op *OpRequest, cs *connSet, outBytes int64) bool {
	if cs.tree == nil || outBytes >= cs.strategy.TreeThreshold {
		return false
	}
	switch op.Op {
	case collective.AllReduce:
		return true
	case collective.Broadcast, collective.Reduce:
		return op.Root == 0
	default:
		return false
	}
}

// runTree executes a binomial-tree schedule: each round moves the full
// buffer to/from one peer. Latency-optimal for the small messages the
// threshold admits.
func (r *Runner) runTree(p *sim.Proc, op *OpRequest, cs *connSet) {
	n := r.comm.Info.NumRanks()
	rounds, err := collective.TreeRoundsFor(op.Op, n, r.rank, op.Root)
	if err != nil {
		panic(err)
	}
	p.Sleep(r.comm.cfg.KernelLaunch)
	for ri, round := range rounds {
		if !round.Active {
			// Peers in this round exchange without us; nothing blocks
			// our round counter because each transfer pairs sender and
			// receiver explicitly.
			continue
		}
		r.comm.telSteps.Inc()
		tr := round.T
		if tr.Send {
			conn := cs.tree[[2]int{r.rank, tr.Peer}]
			data := r.comm.snapshot(span(op.RecvBuf, 0, op.Count))
			conn.SendTagged(op.Count*4, data, nil, trace.FlowTag{
				Comm: int32(r.comm.Info.ID), From: int32(r.rank), To: int32(tr.Peer),
				Channel: 0, Gen: int32(r.gen), Step: int32(ri),
				Op: int32(op.Op), Seq: op.seq,
			})
			continue
		}
		conn := cs.tree[[2]int{tr.Peer, r.rank}]
		d := conn.Recv(p)
		passes := 1.0
		if tr.Reduce {
			passes = 2.0
		}
		p.Sleep(r.dev.TransferTime(op.Count*4, passes))
		r.consume(span(op.RecvBuf, 0, op.Count), d, tr.Reduce)
	}
}

// useHD reports whether this op runs the halving-doubling schedule: the
// strategy selected AlgoHD (so butterfly connections exist) and the op
// is a dense AllReduce. Small messages below the tree threshold still
// prefer the tree (checked first by execute), mirroring how a tuner
// composes the two.
func (r *Runner) useHD(op *OpRequest, cs *connSet) bool {
	return cs.hd != nil && op.Op == collective.AllReduce
}

// runHD executes the halving-doubling AllReduce rounds of one channel.
// Channels split the buffer into contiguous ceil-balanced sub-ranges
// (same split the rings use), each running an independent butterfly
// over its own connections. Sends are asynchronous and receives block,
// so paired exchanges within a round cannot deadlock; per-connection
// FIFO order keeps rounds matched without explicit tags.
func (r *Runner) runHD(p *sim.Proc, op *OpRequest, cs *connSet, ch int) {
	n := r.comm.Info.NumRanks()
	nch := len(cs.conns)
	chStart, chLen := subRange(0, op.Count, nch, ch)
	steps := collective.HDSchedule(n, chLen, r.rank)
	cfg := r.comm.cfg

	p.Sleep(cfg.KernelLaunch)

	rec := r.comm.rec
	traceSteps := rec.Enabled(trace.KindStep)
	for si, st := range steps {
		if !st.Active {
			continue
		}
		r.comm.telSteps.Inc()
		var stepStart sim.Time
		var busy sim.Duration
		if traceSteps {
			stepStart = p.Now()
		}
		if st.SendLen > 0 {
			conn := cs.hd[ch][[2]int{r.rank, st.Peer}]
			off, l := chStart+st.SendLo, st.SendLen
			data := r.comm.snapshot(span(op.RecvBuf, off, l))
			conn.SendTagged(l*4, data, nil, trace.FlowTag{
				Comm: int32(r.comm.Info.ID), From: int32(r.rank), To: int32(st.Peer),
				Channel: int32(ch), Gen: int32(r.gen), Step: int32(si),
				Op: int32(op.Op), Seq: op.seq,
			})
		}
		if st.RecvLen > 0 {
			conn := cs.hd[ch][[2]int{st.Peer, r.rank}]
			d := conn.Recv(p)
			passes := 1.0
			if st.RecvReduce {
				passes = 2.0
			}
			dt := r.dev.TransferTime(st.RecvLen*4, passes)
			p.Sleep(dt)
			busy += dt
			r.consume(span(op.RecvBuf, chStart+st.RecvLo, st.RecvLen), d, st.RecvReduce)
		}
		if traceSteps {
			rec.Emit(trace.Span{
				Kind: trace.KindStep, Op: int32(op.Op),
				Start: stepStart, End: p.Now(), Busy: busy,
				Host: int32(r.comm.Info.Ranks[r.rank].Host),
				GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
				Comm: int32(r.comm.Info.ID), Rank: int32(r.rank), Peer: int32(st.Peer),
				Channel: int32(ch), Gen: int32(r.gen), Step: int32(si),
				Seq: op.seq, Bytes: (st.SendLen + st.RecvLen) * 4,
				Flow: -1, Src: -1, Dst: -1,
			})
		}
	}
}

// sliceCount returns how many pipeline slices a chunk of bytes is cut
// into under the config's slice model.
func sliceCount(cfg Config, bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	minSlice := cfg.MinSliceBytes
	if minSlice <= 0 {
		minSlice = 512 << 10
	}
	maxSlices := cfg.MaxSlices
	if maxSlices <= 0 {
		maxSlices = 8
	}
	k := int((bytes + minSlice - 1) / minSlice)
	if k < 1 {
		k = 1
	}
	if k > maxSlices {
		k = maxSlices
	}
	return k
}

// runChannel executes the ring schedule of one channel.
//
// Each step's chunk is cut into slices that stream independently
// (NCCL's FIFO-slot pipelining): a rank forwards slice k of a step as
// soon as it has received slice k of the previous step, so a transient
// phase skew between ranks costs one slice, not one chunk, of pipeline
// stall.
func (r *Runner) runChannel(p *sim.Proc, op *OpRequest, cs *connSet, ch int) {
	ring := cs.rings[ch]
	n := ring.Size()
	steps := collective.Steps(op.Op, ring, r.rank, op.Root)
	nch := len(cs.conns)
	cfg := r.comm.cfg

	var sendConn, recvConn *transport.Conn
	sendPeer := collective.SendPeer(op.Op, ring, r.rank, op.Root)
	if sendPeer != r.rank {
		sendConn = cs.conns[ch][[2]int{r.rank, sendPeer}]
	}
	if rp := collective.RecvPeer(op.Op, ring, r.rank, op.Root); rp != r.rank {
		recvConn = cs.conns[ch][[2]int{rp, r.rank}]
	}

	// Fused communication kernel launch, once per channel.
	p.Sleep(cfg.KernelLaunch)

	rec := r.comm.rec
	traceSteps := rec.Enabled(trace.KindStep)
	for si, st := range steps {
		r.comm.telSteps.Inc()
		// The tag rides every message of this step onto its fabric flow,
		// joining network transfers back to (comm, seq, step) in the
		// trace. Building it is stack-only, so it costs nothing when
		// recording is off.
		tag := trace.FlowTag{
			Comm: int32(r.comm.Info.ID), From: int32(r.rank), To: int32(sendPeer),
			Channel: int32(ch), Gen: int32(r.gen), Step: int32(si),
			Op: int32(op.Op), Seq: op.seq,
		}
		var stepStart sim.Time
		var busy sim.Duration
		if traceSteps {
			stepStart = p.Now()
		}
		var sOff, sLen, rOff, rLen int64
		if st.SendRegion >= 0 {
			start, length := regionAt(op, n, st.SendRegion)
			sOff, sLen = subRange(start, length, nch, ch)
		}
		if st.RecvRegion >= 0 {
			start, length := regionAt(op, n, st.RecvRegion)
			rOff, rLen = subRange(start, length, nch, ch)
		}
		ks := sliceCount(cfg, sLen*4)
		kr := sliceCount(cfg, rLen*4)
		kmax := ks
		if kr > kmax {
			kmax = kr
		}
		for k := 0; k < kmax; k++ {
			if off, l := subRange(sOff, sLen, ks, k); l > 0 {
				sendConn.SendTagged(l*4, r.comm.snapshot(span(op.RecvBuf, off, l)), nil, tag)
			}
			if off, l := subRange(rOff, rLen, kr, k); l > 0 {
				d := recvConn.Recv(p)
				passes := 1.0
				if st.RecvReduce {
					passes = 2.0
				}
				dt := r.dev.TransferTime(l*4, passes)
				p.Sleep(dt)
				busy += dt
				r.consume(span(op.RecvBuf, off, l), d, st.RecvReduce)
			}
		}
		if traceSteps {
			rec.Emit(trace.Span{
				Kind: trace.KindStep, Op: int32(op.Op),
				Start: stepStart, End: p.Now(), Busy: busy,
				Host: int32(r.comm.Info.Ranks[r.rank].Host),
				GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
				Comm: int32(r.comm.Info.ID), Rank: int32(r.rank), Peer: int32(sendPeer),
				Channel: int32(ch), Gen: int32(r.gen), Step: int32(si),
				Seq: op.seq, Bytes: (sLen + rLen) * 4,
				Flow: -1, Src: -1, Dst: -1,
			})
		}
	}
}
