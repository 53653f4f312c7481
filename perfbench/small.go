package main

import (
	"fmt"
	"math"
	"slices"

	"mccs"
	"mccs/internal/collective"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// small-collectives is the latency-bound, multi-tenant stream: two
// tenants share the testbed (one GPU per host each, so both cross every
// host's NIC), and each rank runs a closed loop of seeded AllReduce and
// AllGather calls from 4 KB to 256 KB on backed buffers. Every output
// element is checked against the reference. Per-message cost in the
// scheduler, transport, collective and service dominates; the fabric
// carries few bytes.
var smallCollectives = workload{
	probe:  probe(testbed),
	run:    runSmall,
	replay: replaySmall,
}

const (
	smallWorlds  = 4
	smallTenants = 2
	// smallOpsPerHost is tenant collectives per host second on a 2-CPU
	// host, which sizes a run to about --seconds.
	smallOpsPerHost = 3000
	smallMaxBytes   = 256 << 10
)

// smallOp is one collective of a tenant's seeded stream.
type smallOp struct {
	op    collective.Op
	bytes int64 // output bytes
}

// smallPlan draws each tenant's op stream for one world. All ranks of a
// tenant issue the same sequence, as a data-parallel job would.
func smallPlan(seed uint64, world, ops int) [][]smallOp {
	rng := &splitmix64{state: seed*0x9e3779b97f4a7c15 + uint64(world)}
	plan := make([][]smallOp, smallTenants)
	for t := range plan {
		for i := 0; i < ops; i++ {
			// Log-uniform over [4 KB, 256 KB] in 16-byte steps, so an
			// AllGather splits evenly over 4 ranks.
			units := math.Exp(math.Log(256) + rng.unit()*math.Log(64))
			o := smallOp{op: collective.AllReduce, bytes: 16 * int64(units)}
			if rng.intn(2) == 1 {
				o.op = collective.AllGather
			}
			plan[t] = append(plan[t], o)
		}
	}
	return plan
}

func smallOpsPerWorld(seconds float64) int {
	return max(1, int(seconds*smallOpsPerHost/(smallWorlds*smallTenants)))
}

// smallTenantGPUs gives tenant t the t-th GPU of every host.
func smallTenantGPUs(c *topo.Cluster, t int) []topo.GPUID {
	var gpus []topo.GPUID
	for _, h := range c.Hosts {
		gpus = append(gpus, h.GPUs[t])
	}
	return gpus
}

// smallRun drives one world's tenants and checks every result. The
// frontend lookup abstracts over how the world was built, so the replay
// can use the root package's testbed constructor.
type smallRun struct {
	ph          *phase
	hash        *opHash
	collectives int
}

func (r *smallRun) start(s *sim.Scheduler, cluster *topo.Cluster, frontend func(topo.GPUID, string) *mccsd.Frontend, plan [][]smallOp) {
	for t, ops := range plan {
		gpus := smallTenantGPUs(cluster, t)
		app := fmt.Sprintf("tenant-%d", t)
		for rank, gpu := range gpus {
			rank, gpu, ops := rank, gpu, ops
			s.Go(app, func(p *sim.Proc) { r.rank(p, frontend(gpu, app), app, len(gpus), rank, gpu, ops) })
		}
	}
}

func (r *smallRun) rank(p *sim.Proc, f *mccsd.Frontend, app string, n, rank int, gpu topo.GPUID, ops []smallOp) {
	ph := r.ph
	send, err := f.MemAlloc(p, gpu, smallMaxBytes, true)
	if err != nil {
		ph.fail("%s rank %d: %v", app, rank, err)
		return
	}
	recv, err := f.MemAlloc(p, gpu, smallMaxBytes, true)
	if err != nil {
		ph.fail("%s rank %d: %v", app, rank, err)
		return
	}
	comm, err := f.CommInitRank(p, app, n, rank, gpu)
	if err != nil {
		ph.fail("%s rank %d: %v", app, rank, err)
		return
	}
	for i, o := range ops {
		out := int(o.bytes / 4)
		in := out
		if o.op == collective.AllGather {
			in = out / n
		}
		// Element j of rank r's input is (r+1)*pattern[(i+j)%7]: small
		// integers keep float32 sums exact in any reduction order, and
		// the offset i makes a stale result from the previous op fail.
		copy(send.Data(), expected(float32(rank+1), i)[:in])
		var h *mccsd.OpHandle
		if o.op == collective.AllReduce {
			h, err = comm.AllReduce(p, send, recv, int64(in), nil)
		} else {
			h, err = comm.AllGather(p, send, recv, int64(in), nil)
		}
		ph.attempted++
		if err != nil {
			ph.fail("%s rank %d op %d: %v", app, rank, i, err)
			return
		}
		st := h.Wait(p)
		bad := false
		if o.op == collective.AllReduce {
			bad = !slices.Equal(recv.Data()[:out], expected(float32(n*(n+1)/2), i)[:out])
		} else {
			for r := 0; r < n && !bad; r++ {
				bad = !slices.Equal(recv.Data()[r*in:(r+1)*in], expected(float32(r+1), i)[:in])
			}
		}
		if bad {
			ph.fail("%s rank %d op %d (%v, %d B): wrong result", app, rank, i, o.op, o.bytes)
		}
		if rank == 0 {
			r.collectives++
		}
		ph.unitMs = append(ph.unitMs, float64(st.Elapsed())/1e6)
		ph.opBytes += float64(st.Bytes)
		ph.opSecs += st.Elapsed().Seconds()
		r.hash.add(st.Issued, st.Done)
	}
}

// expectedTables caches scale*pattern[j%7] with 7 elements of slack,
// so filling and checking a buffer at any offset is a copy and a
// compare.
var expectedTables = map[float32][]float32{}

var pattern = [7]float32{1, 2, 3, 4, 5, 6, 7}

func expected(scale float32, off int) []float32 {
	t := expectedTables[scale]
	if t == nil {
		t = make([]float32, smallMaxBytes/4+len(pattern))
		for j := range t {
			t[j] = scale * pattern[j%len(pattern)]
		}
		expectedTables[scale] = t
	}
	return t[off%len(pattern):]
}

func runSmall(seed uint64, seconds float64, instrument bool) (*phase, error) {
	ph := &phase{}
	tally := &spanTally{}
	ops := smallOpsPerWorld(seconds)
	for wi := 0; wi < smallWorlds; wi++ {
		w, err := buildWorld(testbed, ncclsim.Config(ncclsim.MCCS), instrument)
		if err != nil {
			return nil, err
		}
		if instrument {
			w.rec.SetTap(tally.add)
		}
		r := &smallRun{ph: ph, hash: newOpHash()}
		r.start(w.s, w.cluster, func(g topo.GPUID, app string) *mccsd.Frontend {
			return w.dep.Service(w.cluster.HostOfGPU(g)).Frontend(spec.AppID(app))
		}, smallPlan(seed, wi, ops))
		if err := w.s.Run(); err != nil {
			return nil, err
		}
		ph.endWorld(r.collectives)
		ph.events += w.events
		if wi == 0 {
			ph.fingerprint = fmt.Sprintln(r.hash, w.events)
		}
		if instrument {
			prom, err := promText(w.sampler.Registry())
			if err != nil {
				return nil, err
			}
			if err := addInstrumentation(ph, prom, len(w.sampler.Samples()), w.rec.Dropped()); err != nil {
				return nil, err
			}
			if wi == 0 {
				w.fabric.FlushTrace()
				ph.analyze = analyzeRecording(w.rec.Snapshot(), nil)
			}
		}
	}
	if instrument {
		tally.addTo(ph)
	}
	return ph, nil
}

// replaySmall re-runs the first world on the root package's testbed
// constructor, the entry point a tenant application uses.
func replaySmall(seed uint64, seconds float64) (string, error) {
	env, err := mccs.NewTestbed(mccs.SystemMCCS)
	if err != nil {
		return "", err
	}
	var events uint64
	env.Scheduler().SetObserver(func(sim.Time, uint64) { events++ })
	ph := &phase{}
	r := &smallRun{ph: ph, hash: newOpHash()}
	r.start(env.Scheduler(), env.Cluster(), func(g topo.GPUID, app string) *mccsd.Frontend {
		return env.Frontend(g, spec.AppID(app))
	}, smallPlan(seed, 0, smallOpsPerWorld(seconds)))
	if err := env.Scheduler().Run(); err != nil {
		return "", err
	}
	if ph.failed > 0 {
		return "", fmt.Errorf("replay checks failed: %v", ph.problems)
	}
	return fmt.Sprintln(r.hash, events), nil
}
