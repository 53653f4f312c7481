package transport

// Tests for the closure-free datapath: zero allocations per message in
// steady state, the UnserializedSends ablation, send perturbation, and
// in-order delivery when a fuzzing Picker permutes same-instant events.

import (
	"math/rand"
	"testing"
	"time"

	"mccs/internal/sim"
	"mccs/internal/spec"
)

// roundTrip sets up conn's receiver as a daemon that drains every
// delivery, and returns a step that sends one unbacked message and runs
// the simulation until it has been received.
func roundTrip(t testing.TB, r *rig, conn *Conn, bytes int64) func() {
	t.Helper()
	received := 0
	r.s.GoDaemon("recv", func(p *sim.Proc) {
		for {
			conn.Recv(p)
			received++
		}
	})
	return func() {
		want := received + 1
		conn.Send(bytes, nil, nil)
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		if received != want {
			t.Fatalf("received %d messages, want %d", received, want)
		}
	}
}

// TestDatapathDoesNotAllocate pins the steady-state cost of one message
// on a warm connection — SendTagged, the fabric flow or intra-host
// transfer, its completion, the delivery latency, Recv — at zero heap
// allocations, for both connection kinds.
func TestDatapathDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		intra bool
	}{{"inter-host", false}, {"intra-host", true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			src := r.cluster.Hosts[0].NICs[0]
			dst := r.cluster.Hosts[2].NICs[0]
			if tc.intra {
				dst = r.cluster.Hosts[0].NICs[1]
			}
			conn, err := r.engines[0].Connect("appA", src, dst, spec.RouteECMP, 1)
			if err != nil {
				t.Fatal(err)
			}
			if conn.Intra() != tc.intra {
				t.Fatalf("Intra() = %v, want %v", conn.Intra(), tc.intra)
			}
			step := roundTrip(t, r, conn, 256<<10)
			for i := 0; i < 100; i++ {
				step() // warm: message ring, event arena, fabric pool and scratch
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("one message round trip allocates %v, want 0", n)
			}
		})
	}
}

// TestUnserializedSendsShareThePath drives the ablation mode: with the
// per-connection FIFO disabled, a connection's messages enter the fabric
// at once and processor-share its path, so two equal messages complete
// together instead of one after the other. Deliveries still come out of
// Recv in send order with the right sizes.
func TestUnserializedSendsShareThePath(t *testing.T) {
	for _, unser := range []bool{false, true} {
		r := newRig(t)
		for _, e := range r.engines {
			e.cfg.UnserializedSends = unser
		}
		h0, h2 := r.cluster.Hosts[0], r.cluster.Hosts[2]
		var got []Delivery
		var at []time.Duration
		r.s.Go("driver", func(p *sim.Proc) {
			c, err := r.engines[0].Connect("appA", h0.NICs[0], h2.NICs[0], 0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			c.Send(25e6, nil, nil) // 25 MB at 50 Gbps = 4 ms alone
			c.Send(50e6, nil, nil)
			for i := 0; i < 2; i++ {
				got = append(got, c.Recv(p))
				at = append(at, time.Duration(p.Now()))
			}
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Seq != 1 || got[0].Bytes != 25e6 || got[1].Seq != 2 || got[1].Bytes != 50e6 {
			t.Fatalf("unserialized=%v: deliveries = %+v", unser, got)
		}
		// Serialized: 4 ms, then 8 ms more. Processor sharing: both
		// run at 25 Gbps until the first finishes at 8 ms; the rest of
		// the second takes 4 ms more at full rate.
		want0 := 4 * time.Millisecond
		if unser {
			want0 = 8 * time.Millisecond
		}
		if d := at[0] - want0; d < 0 || d > 50*time.Microsecond {
			t.Errorf("unserialized=%v: first delivery at %v, want ~%v", unser, at[0], want0)
		}
		if d := at[1] - 12*time.Millisecond; d < 0 || d > 50*time.Microsecond {
			t.Errorf("unserialized=%v: second delivery at %v, want ~12ms", unser, at[1])
		}
	}
}

// TestSendPerturbDelaysEachMessageInOrder checks SetSendPerturb: every
// message's entry into its channel is delayed by the hook's result,
// consulted once per message in send order, and the delay stalls the
// connection's FIFO instead of reordering it. A nil hook removes it.
func TestSendPerturbDelaysEachMessageInOrder(t *testing.T) {
	r := newRig(t)
	h := r.cluster.Hosts[0]
	var asked []int64
	r.engines[0].SetSendPerturb(func(bytes int64) time.Duration {
		asked = append(asked, bytes)
		return time.Millisecond
	})
	var at []time.Duration
	var seqs []uint64
	r.s.Go("driver", func(p *sim.Proc) {
		c, err := r.engines[0].Connect("appA", h.NICs[0], h.NICs[1], spec.RouteECMP, 1)
		if err != nil {
			t.Error(err)
			return
		}
		for _, b := range []int64{4, 8, 12} { // sub-ns transfers: latency-bound
			c.Send(b, nil, nil)
		}
		for i := 0; i < 3; i++ {
			seqs = append(seqs, c.Recv(p).Seq)
			at = append(at, time.Duration(p.Now()))
		}
		r.engines[0].SetSendPerturb(nil)
		start := p.Now()
		c.Send(4, nil, nil)
		c.Recv(p)
		at = append(at, time.Duration(p.Now().Sub(start)))
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 3 || asked[0] != 4 || asked[1] != 8 || asked[2] != 12 {
		t.Errorf("perturb consulted with %v, want [4 8 12]", asked)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Errorf("seqs = %v, want [1 2 3]", seqs)
	}
	lat := DefaultConfig(0).IntraLatency
	for i := 0; i < 3; i++ {
		// Message i starts (i+1) ms in: each delay waits for the
		// previous message to leave the FIFO.
		if want := time.Duration(i+1)*time.Millisecond + lat; at[i] != want {
			t.Errorf("message %d delivered at %v, want %v", i+1, at[i], want)
		}
	}
	if at[3] != lat {
		t.Errorf("after removing the hook, delivery took %v, want %v", at[3], lat)
	}
}

// shufflePicker fires same-instant events in a seeded random order.
type shufflePicker struct{ rng *rand.Rand }

func (sp *shufflePicker) Pick(n int) int { return sp.rng.Intn(n) }

// TestPermutedSameInstantDeliveriesStayInOrder sends bursts of tiny
// backed messages on an intra-host connection, whose deliveries all land
// on one virtual instant, under a Picker that permutes same-instant
// events. Every seed must still hand each message to Recv in seq order
// with its own payload, and the sweep must actually exercise
// re-sequencing.
func TestPermutedSameInstantDeliveriesStayInOrder(t *testing.T) {
	const msgs = 16
	maxStashed := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := newRig(t)
		r.s.SetPicker(&shufflePicker{rng: rand.New(rand.NewSource(seed))})
		h := r.cluster.Hosts[0]
		r.s.Go("driver", func(p *sim.Proc) {
			c, err := r.engines[0].Connect("appA", h.NICs[0], h.NICs[1], spec.RouteECMP, 1)
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				for i := 0; i < msgs; i++ {
					c.Send(4, []float32{float32(round*msgs + i)}, nil)
				}
				for i := 0; i < msgs; i++ {
					d := c.Recv(p)
					want := uint64(round*msgs + i + 1)
					if d.Seq != want || d.Bytes != 4 || len(d.Data) != 1 || d.Data[0] != float32(want-1) {
						t.Errorf("seed %d: delivery %+v, want seq %d carrying %d", seed, d, want, want-1)
						return
					}
					if c.stashed > maxStashed {
						maxStashed = c.stashed
					}
				}
				if c.Pending() != 0 {
					t.Errorf("seed %d: %d messages pending after draining", seed, c.Pending())
				}
			}
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if maxStashed == 0 {
		t.Error("no delivery ever arrived out of order: the Picker did not exercise re-sequencing")
	}
}

// BenchmarkDatapath measures one message on a warm inter-host connection
// end to end: send, fabric flow, completion, delivery latency, Recv.
func BenchmarkDatapath(b *testing.B) {
	r := newRig(b)
	conn, err := r.engines[0].Connect("appA", r.cluster.Hosts[0].NICs[0], r.cluster.Hosts[2].NICs[0], spec.RouteECMP, 1)
	if err != nil {
		b.Fatal(err)
	}
	step := roundTrip(b, r, conn, 256<<10)
	for i := 0; i < 100; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
