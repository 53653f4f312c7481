package proxy

// Tests for pooled payload snapshots: a message's data is a send-time copy
// even when its buffer is recycled, recycled buffers of every size carry
// exact results through every algorithm, and a warm backed collective
// allocates nothing on top of the same collective unbacked.

import (
	"fmt"
	"testing"

	"mccs/internal/collective"
	"mccs/internal/gpusim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/transport"
)

// commWith builds a communicator over gpus with an explicit strategy and
// proxy config.
func (r *rig) commWith(t testing.TB, gpus []topo.GPUID, strat spec.Strategy, cfg Config) *Comm {
	t.Helper()
	info := spec.CommInfo{ID: 4, App: "snap", Strategy: strat}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g,
			Host: r.cluster.HostOfGPU(g),
			NIC:  r.cluster.NICOfGPU(g),
		})
	}
	comm, err := NewComm(r.s, r.cluster, r.engines, r.devices, info, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

// identityChannels returns nch channels over the identity ring of n ranks.
func identityChannels(n, nch int) []spec.ChannelSpec {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	chans := make([]spec.ChannelSpec, nch)
	for ci := range chans {
		chans[ci] = spec.ChannelSpec{Order: order, Route: ci}
	}
	return chans
}

// p2pPair enqueues a send of count elements from rank `from` to rank `to`
// and the matching receive, returning both futures.
func p2pPair(comm *Comm, from, to int, count int64, sendBuf, recvBuf *gpusim.Buffer) (send, recv *sim.Future[OpResult]) {
	send, recv = sim.NewFuture[OpResult](), sim.NewFuture[OpResult]()
	comm.Runners[from].Enqueue(&P2PRequest{Peer: to, Send: true, Count: count, Buf: sendBuf, Done: send})
	comm.Runners[to].Enqueue(&P2PRequest{Peer: from, Count: count, Buf: recvBuf, Done: recv})
	return send, recv
}

// TestSnapshotIsolatedFromSenderOverwrite sends a small message whose
// snapshot lands in a buffer recycled from an earlier, larger message,
// then overwrites the sender's buffer before the receive is even posted.
// The receiver must see the send-time values, not the overwrite and not
// the recycled buffer's stale tail.
func TestSnapshotIsolatedFromSenderOverwrite(t *testing.T) {
	r := newRig(t)
	gpus := r.fourHostGPUs()
	comm := r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
	const big, small = 4096, 100
	src, _ := r.devices[gpus[0]].AllocBacked(big * 4)
	dst, _ := r.devices[gpus[1]].AllocBacked(big * 4)
	for i := range src.Data() {
		src.Data()[i] = -1
	}
	r.s.Go("driver", func(p *sim.Proc) {
		send, recv := p2pPair(comm, 0, 1, big, src, dst)
		send.Wait(p)
		recv.Wait(p)
		if len(comm.free) != 1 || cap(comm.free[0]) < big {
			t.Fatalf("after the large message: free list %d buffers, want 1 of cap >= %d", len(comm.free), big)
		}

		for i := 0; i < small; i++ {
			src.Data()[i] = float32(i + 1)
		}
		send = sim.NewFuture[OpResult]()
		comm.Runners[0].Enqueue(&P2PRequest{Peer: 1, Send: true, Count: small, Buf: src, Done: send})
		send.Wait(p)
		if len(comm.free) != 0 {
			t.Fatalf("send did not take the recycled buffer: free list has %d", len(comm.free))
		}
		// The message is in flight or queued at the receiver; clobber the
		// sender's working buffer before the receive is posted.
		for i := range src.Data() {
			src.Data()[i] = 999
		}
		for i := range dst.Data() {
			dst.Data()[i] = 0
		}
		recv = sim.NewFuture[OpResult]()
		comm.Runners[1].Enqueue(&P2PRequest{Peer: 0, Count: small, Buf: dst, Done: recv})
		recv.Wait(p)
		for i := 0; i < small; i++ {
			if got, want := dst.Data()[i], float32(i+1); got != want {
				t.Fatalf("elem %d = %g, want send-time value %g", i, got, want)
			}
		}
		for i := small; i < big; i++ {
			if dst.Data()[i] != 0 {
				t.Fatalf("elem %d = %g past the message end, want untouched 0", i, dst.Data()[i])
			}
		}
		if len(comm.free) != 1 {
			t.Errorf("receive did not release the snapshot: free list has %d", len(comm.free))
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// snapCase is one backed op of a reuse sequence.
type snapCase struct {
	op    collective.Op
	root  int
	count int64
	p2p   bool
	ins   [][]float32      // per-rank inputs
	sends []*gpusim.Buffer // per-rank send buffers (AllGather and P2P)
	outs  []*gpusim.Buffer // per-rank output buffers
	futs  []*sim.Future[OpResult]
}

// TestSnapshotReuseMatchesReference runs a backed sequence whose sizes
// grow and shrink (non-power-of-two counts, several slices per step) on
// ring, tree, halving-doubling and P2P schedules. Every op is enqueued up
// front, so ranks run ahead of their peers and several snapshots sit on
// one connection at once while recycled buffers of other sizes are reused.
// Every result must equal the collective reference exactly.
func TestSnapshotReuseMatchesReference(t *testing.T) {
	counts := []int64{1000, 37, 4099, 257, 2049, 5, 3001, 130, 777}
	cfg := DefaultConfig()
	cfg.MinSliceBytes = 256 // a 1000-element chunk streams as 4 slices
	cfg.MaxSlices = 4
	for _, tc := range []struct {
		name  string
		strat spec.Strategy
		ops   []collective.Op // cycled through; nil runs P2P
	}{
		{"ring", spec.Strategy{Channels: identityChannels(4, 2)},
			[]collective.Op{collective.AllReduce, collective.AllGather, collective.ReduceScatter, collective.Broadcast, collective.Reduce}},
		// Back-to-back broadcasts (reduces) let the root (the leaves)
		// run a whole op ahead of the receivers.
		{"tree", spec.Strategy{Channels: identityChannels(4, 1), TreeThreshold: 1 << 30},
			[]collective.Op{collective.Broadcast, collective.Broadcast, collective.Reduce, collective.Reduce, collective.AllReduce}},
		{"hd", spec.Strategy{Channels: identityChannels(4, 2), Algorithm: spec.AlgoHD},
			[]collective.Op{collective.AllReduce}},
		{"p2p", spec.Strategy{Channels: identityChannels(4, 1)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			gpus := r.fourHostGPUs()
			n := len(gpus)
			comm := r.commWith(t, gpus, tc.strat, cfg)
			alloc := func(rank int, count int64) *gpusim.Buffer {
				b, err := r.devices[gpus[rank]].AllocBacked(count * 4)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			cases := make([]*snapCase, len(counts))
			for i, count := range counts {
				c := &snapCase{count: count, p2p: tc.ops == nil}
				if !c.p2p {
					c.op = tc.ops[i%len(tc.ops)]
					// The tree is provisioned at root 0; rings take any root.
					if tc.name == "ring" && (c.op == collective.Broadcast || c.op == collective.Reduce) {
						c.root = i % n
					}
				}
				for rank := 0; rank < n; rank++ {
					in := make([]float32, count)
					for j := range in {
						in[j] = float32((i*7+rank*13+j)%31 + 1)
					}
					c.ins = append(c.ins, in)
					switch {
					case c.p2p || c.op == collective.AllGather:
						send := alloc(rank, count)
						copy(send.Data(), in)
						c.sends = append(c.sends, send)
						outLen := count
						if !c.p2p {
							outLen *= int64(n)
						}
						c.outs = append(c.outs, alloc(rank, outLen))
					default:
						out := alloc(rank, count)
						copy(out.Data(), in)
						c.sends = append(c.sends, out)
						c.outs = append(c.outs, out)
					}
				}
				cases[i] = c
			}
			// Rank 1 folds data in 200x slower than its peers, so messages
			// pile up in its inboxes; peak is the most delivered but not
			// yet consumed messages, each holding a live snapshot, seen
			// on one connection.
			r.devices[gpus[1]].SetSlowdown(200)
			peak := 0
			r.s.SetObserver(func(sim.Time, uint64) {
				for _, cn := range commConnList(comm) {
					if q := cn.Pending(); q > peak {
						peak = q
					}
				}
			})
			r.s.Go("driver", func(p *sim.Proc) {
				for _, c := range cases {
					if c.p2p {
						// Every rank sends to its successor, issuing all
						// slices at once, before any rank receives.
						for rank, rn := range comm.Runners {
							f := sim.NewFuture[OpResult]()
							rn.Enqueue(&P2PRequest{Peer: (rank + 1) % n, Send: true, Count: c.count, Buf: c.sends[rank], Done: f})
							c.futs = append(c.futs, f)
						}
						for rank, rn := range comm.Runners {
							f := sim.NewFuture[OpResult]()
							rn.Enqueue(&P2PRequest{Peer: (rank + n - 1) % n, Count: c.count, Buf: c.outs[rank], Done: f})
							c.futs = append(c.futs, f)
						}
						continue
					}
					for rank, rn := range comm.Runners {
						f := sim.NewFuture[OpResult]()
						rn.Enqueue(&OpRequest{Op: c.op, Root: c.root, Count: c.count,
							SendBuf: c.sends[rank], RecvBuf: c.outs[rank], Done: f})
						c.futs = append(c.futs, f)
					}
				}
				for _, c := range cases {
					for _, f := range c.futs {
						f.Wait(p)
					}
				}
			})
			if err := r.s.Run(); err != nil {
				t.Fatal(err)
			}
			for i, c := range cases {
				checkSnapCase(t, fmt.Sprintf("op %d (%v, %d elems)", i, c.op, c.count), c, n)
			}
			// A halving-doubling exchange is pairwise, one message per
			// connection per round, so only its channels overlap.
			want := 2
			if tc.name == "hd" {
				want = 1
			}
			if peak < want {
				t.Errorf("at most %d snapshots queued on one connection, want >= %d", peak, want)
			}
		})
	}
}

// commConnList returns every connection of a communicator.
func commConnList(c *Comm) []*transport.Conn {
	var out []*transport.Conn
	for _, conn := range c.p2p {
		out = append(out, conn)
	}
	for _, cs := range c.gens {
		for _, conn := range cs.tree {
			out = append(out, conn)
		}
		for _, m := range cs.conns {
			for _, conn := range m {
				out = append(out, conn)
			}
		}
		for _, m := range cs.hd {
			for _, conn := range m {
				out = append(out, conn)
			}
		}
	}
	return out
}

// checkSnapCase compares one op's outputs against collective.Oracle; for
// P2P the expected output of each rank is its predecessor's input.
func checkSnapCase(t *testing.T, name string, c *snapCase, n int) {
	t.Helper()
	want := make([][]float32, n)
	if c.p2p {
		for rank := range want {
			want[rank] = c.ins[(rank+n-1)%n]
		}
	} else {
		var err error
		if want, err = collective.Oracle(c.op, c.root, c.ins); err != nil {
			t.Fatal(err)
		}
	}
	for rank := 0; rank < n; rank++ {
		lo, hi := int64(0), int64(len(want[rank]))
		switch c.op {
		case collective.ReduceScatter:
			lo, hi = collective.Region(c.count, n, rank)
			hi += lo
		case collective.Reduce:
			if rank != c.root && !c.p2p {
				continue
			}
		}
		got := c.outs[rank].Data()
		for j := lo; j < hi; j++ {
			if got[j] != want[rank][j] {
				t.Fatalf("%s: rank %d elem %d = %g, want %g", name, rank, j, got[j], want[rank][j])
			}
		}
	}
}

// TestBackedCollectiveAllocatesLikeUnbacked pins the payload path at zero
// allocations: a warm backed op allocates exactly as many objects as the
// same op on unbacked buffers, for a 256 KB ring AllReduce, a 256 KB
// halving-doubling AllReduce and a 1 MB P2P send/receive pair (two
// slices).
func TestBackedCollectiveAllocatesLikeUnbacked(t *testing.T) {
	for _, tc := range []struct {
		name string
		hd   bool
		p2p  bool
	}{{"ring-allreduce", false, false}, {"hd-allreduce", true, false}, {"p2p-pair", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(backed bool) float64 {
				r := newRig(t)
				gpus := r.fourHostGPUs()
				var comm *Comm
				if tc.hd {
					comm = r.hdComm(t, gpus, 1, 0)
				} else {
					comm = r.commOn(t, gpus, [][]int{{0, 1, 2, 3}})
				}
				count := int64(256 << 10 / 4)
				if tc.p2p {
					count = 1 << 20 / 4
				}
				step := opStep(t, r, comm, gpus, count, backed, tc.p2p)
				for i := 0; i < 10; i++ {
					step()
				}
				return testing.AllocsPerRun(50, step)
			}
			unbacked, backed := allocs(false), allocs(true)
			if backed != unbacked {
				t.Errorf("warm backed op allocates %v objects, unbacked %v: the payload path must add 0", backed, unbacked)
			}
		})
	}
}

// opStep returns a step that runs one AllReduce on every rank (or, with
// p2p, one send from rank 0 to rank 1 and its receive) over buffers of
// count elements and drains the simulation.
func opStep(t testing.TB, r *rig, comm *Comm, gpus []topo.GPUID, count int64, backed, p2p bool) func() {
	bufs := make([]*gpusim.Buffer, len(gpus))
	for i, g := range gpus {
		var err error
		if backed {
			bufs[i], err = r.devices[g].AllocBacked(count * 4)
		} else {
			bufs[i], err = r.devices[g].Alloc(count * 4)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	done := 0
	fire := func() { done++ }
	return func() {
		want := done + len(gpus)
		if p2p {
			want = done + 2
			comm.Runners[0].Enqueue(&P2PRequest{Peer: 1, Send: true, Count: count, Buf: bufs[0], CompleteFire: fire})
			comm.Runners[1].Enqueue(&P2PRequest{Peer: 0, Count: count, Buf: bufs[1], CompleteFire: fire})
		} else {
			for i, rn := range comm.Runners {
				rn.Enqueue(&OpRequest{Op: collective.AllReduce, Count: count, SendBuf: bufs[i], RecvBuf: bufs[i], CompleteFire: fire})
			}
		}
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		if done != want {
			t.Fatalf("%d ops completed, want %d", done, want)
		}
	}
}

// BenchmarkBackedCollective measures a warm backed ring AllReduce on the
// 4-GPU testbed through the proxy, transport and fabric. Its B/op and
// allocs/op are the payload path's cost: a per-message heap copy would
// show here as MB per op.
func BenchmarkBackedCollective(b *testing.B) {
	for _, size := range []struct {
		name  string
		bytes int64
	}{{"64KB", 64 << 10}, {"1MB", 1 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			r := newRig(b)
			gpus := r.fourHostGPUs()
			comm := r.commOn(b, gpus, [][]int{{0, 1, 2, 3}})
			step := opStep(b, r, comm, gpus, size.bytes/4, true, false)
			for i := 0; i < 10; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
