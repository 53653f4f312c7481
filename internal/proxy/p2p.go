package proxy

import (
	"fmt"

	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/trace"
	"mccs/internal/transport"
)

// Point-to-point communication (paper §5 lists P2P alongside tree
// algorithms as a straightforward extension). P2P operations flow through
// the same per-rank execution pipeline as collectives — preserving the
// NCCL ordering contract that operations on one communicator execute in
// issue order — but they do not advance the reconfiguration sequence
// number: the Fig. 4 barrier counts collectives, which involve every rank
// and therefore have globally consistent sequence numbers; a pairwise op
// does not. P2P connections are communicator-lifetime (lazily created,
// never torn down by reconfiguration, which only concerns collective
// strategy), so a reconfiguration can never strand an in-flight P2P
// message on a closed connection.

// P2PRequest asks a runner to execute one send or receive.
type P2PRequest struct {
	Peer  int
	Send  bool
	Count int64
	Buf   *gpusim.Buffer
	// AppEvent, CompleteFire and Done behave as in OpRequest.
	AppEvent     gpusim.EventInstance
	CompleteFire func()
	Done         *sim.Future[OpResult]
}

// p2pConn returns (creating lazily) the communicator-lifetime connection
// from rank `from` to rank `to`.
func (c *Comm) p2pConn(from, to int) (*transport.Conn, error) {
	if c.p2p == nil {
		c.p2p = make(map[[2]int]*transport.Conn)
	}
	key := [2]int{from, to}
	if conn, ok := c.p2p[key]; ok {
		return conn, nil
	}
	fi, ti := c.Info.Ranks[from], c.Info.Ranks[to]
	label := connLabel(c.cfg.LabelSalt, c.Info.ID, -1, 1<<21, from, to)
	conn, err := c.engines[fi.Host].Connect(c.Info.App, fi.NIC, ti.NIC, spec.RouteECMP, label)
	if err != nil {
		return nil, fmt.Errorf("proxy: comm %d p2p conn %d->%d: %w", c.Info.ID, from, to, err)
	}
	c.p2p[key] = conn
	return conn, nil
}

// executeP2P runs one send or receive on the exec pipeline.
func (r *Runner) executeP2P(p *sim.Proc, req *P2PRequest) {
	start := p.Now()
	req.AppEvent.WaitHost(p)
	if req.Count <= 0 {
		panic(fmt.Sprintf("proxy: p2p with count %d", req.Count))
	}
	if req.Peer < 0 || req.Peer >= r.comm.Info.NumRanks() || req.Peer == r.rank {
		panic(fmt.Sprintf("proxy: p2p with bad peer %d", req.Peer))
	}
	cfg := r.comm.cfg
	p.Sleep(cfg.KernelLaunch)

	k := sliceCount(cfg, req.Count*4)
	starts, lens := sliceLayout(req.Count, k)
	if req.Send {
		conn, err := r.comm.p2pConn(r.rank, req.Peer)
		if err != nil {
			panic(err)
		}
		for i := 0; i < k; i++ {
			if lens[i] == 0 {
				continue
			}
			data := r.comm.snapshot(span(req.Buf, starts[i], lens[i]))
			conn.SendTagged(lens[i]*4, data, nil, trace.FlowTag{
				Comm: int32(r.comm.Info.ID), From: int32(r.rank), To: int32(req.Peer),
				Channel: -1, Gen: -1, Step: int32(i), Op: -1,
			})
		}
	} else {
		conn, err := r.comm.p2pConn(req.Peer, r.rank)
		if err != nil {
			panic(err)
		}
		for i := 0; i < k; i++ {
			if lens[i] == 0 {
				continue
			}
			d := conn.Recv(p)
			p.Sleep(r.dev.TransferTime(lens[i]*4, 1))
			r.consume(span(req.Buf, starts[i], lens[i]), d, false)
		}
	}

	if req.CompleteFire != nil {
		req.CompleteFire()
	}
	if rec := r.comm.rec; rec.Enabled(trace.KindP2P) {
		label := "recv"
		if req.Send {
			label = "send"
		}
		rec.Emit(trace.Span{
			Kind: trace.KindP2P, Op: -1,
			Start: start, End: p.Now(),
			Host: int32(r.comm.Info.Ranks[r.rank].Host),
			GPU:  int32(r.comm.Info.Ranks[r.rank].GPU),
			Comm: int32(r.comm.Info.ID), Rank: int32(r.rank), Peer: int32(req.Peer),
			Channel: -1, Gen: -1, Step: -1,
			Bytes: req.Count * 4, Label: label,
			Flow: -1, Src: -1, Dst: -1,
		})
	}
	if req.Done != nil {
		req.Done.Set(r.comm.s, OpResult{Start: start, End: p.Now(), Bytes: req.Count * 4})
	}
}

// sliceLayout splits count elements into k contiguous slices.
func sliceLayout(count int64, k int) (starts, lens []int64) {
	starts = make([]int64, k)
	lens = make([]int64, k)
	base := count / int64(k)
	rem := count % int64(k)
	var off int64
	for i := 0; i < k; i++ {
		l := base
		if int64(i) < rem {
			l++
		}
		starts[i] = off
		lens[i] = l
		off += l
	}
	return starts, lens
}
