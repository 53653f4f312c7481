package main

import (
	"fmt"
	"time"

	"mccs/internal/harness"
	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

// ring-reconfig is the Fig. 7 showcase: one 8-GPU tenant runs a 128 MB
// AllReduce loop on the 4-switch ring, a background flow lands on a
// clockwise ring link, and the provider reverses the ring. It is the
// bandwidth-bound datapath (fabric water-fill, per-chunk transport
// work, the scheduler), with instrumentation off.
//
// The benchmark builds the world itself, step for step as
// harness.RunReconfigShowcase does, so it can count scheduler events
// and attach the recorder; the determinism check replays the world
// through RunReconfigShowcase and requires identical phase bandwidths.
var ringReconfig = workload{
	probe:  probe(ringTopo),
	run:    runRing,
	replay: replayRing,
}

// ringVirtualPerHost is virtual seconds simulated per host second on a
// 2-CPU host, so a run's measured pass lasts about --seconds.
const ringVirtualPerHost = 2.7

// ringConfig draws the run from the seed. The seed sets the AllReduce
// size within 3% above the paper's 128 MB, so every simulated result
// depends on it; the background flow and the reversal keep the paper's
// 7.5/20 and 12/20 positions in the run, so each phase's share of the
// host time does not move with the seed.
func ringConfig(seed uint64, seconds float64) harness.ReconfigConfig {
	cfg := harness.DefaultReconfigConfig()
	rng := &splitmix64{state: seed}
	cfg.Bytes += int64(rng.intn(1024)) * 4 << 10
	run := time.Duration(seconds*ringVirtualPerHost*1e3) * time.Millisecond
	cfg.BgStart = run * 3 / 8
	cfg.ReconfigAt = run * 3 / 5
	cfg.RunFor = run
	return cfg
}

func ringTopo() (*topo.Cluster, error) {
	cfg := harness.DefaultReconfigConfig()
	return topo.BuildSwitchRing(topo.RingConfig{
		Switches: 4, GPUsPerHost: 2, NICsPerHost: 2,
		NICBps: cfg.NICBps, SwitchBps: cfg.SwitchBps,
	})
}

func runRing(seed uint64, seconds float64, instrument bool) (*phase, error) {
	cfg := ringConfig(seed, seconds)
	w, err := buildWorld(ringTopo, ncclsim.Config(ncclsim.MCCS), instrument)
	if err != nil {
		return nil, err
	}
	tally := &spanTally{}
	if instrument {
		w.rec.SetTap(tally.add)
	}
	s, cluster, dep := w.s, w.cluster, w.dep
	gpus := gpusOf(cluster)
	n := len(gpus)
	count := cfg.Bytes / 4
	ph := &phase{}
	var series []harness.TimePoint
	var errs []error
	var commID spec.CommID
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := cluster.HostOfGPU(gpu)
		s.GoDaemon(fmt.Sprintf("job:rank%d", rank), func(p *sim.Proc) {
			f := dep.Service(host).Frontend("job")
			buf, err := f.MemAlloc(p, gpu, count*4, false)
			if err != nil {
				errs = append(errs, err)
				return
			}
			comm, err := f.CommInitRank(p, "job", n, rank, gpu)
			if err != nil {
				errs = append(errs, err)
				return
			}
			if rank == 0 {
				commID = comm.ID()
			}
			for {
				h, err := comm.AllReduce(p, nil, buf, count, nil)
				if err != nil {
					errs = append(errs, err)
					return
				}
				st := h.Wait(p)
				ph.unitMs = append(ph.unitMs, float64(st.Elapsed())/1e6)
				ph.opBytes += float64(st.Bytes)
				ph.opSecs += st.Elapsed().Seconds()
				if rank == 0 {
					series = append(series, harness.TimePoint{T: st.Done, AlgBW: st.AlgBW()})
				}
			}
		})
	}
	s.At(sim.Time(cfg.BgStart), func() {
		link, err := cluster.RingLinkBetween(1, 2)
		if err != nil {
			errs = append(errs, err)
			return
		}
		l := cluster.Net.Link(link)
		w.fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Route: []netsim.LinkID{link},
			FixedRate: cfg.BgRate, External: true,
		})
	})
	s.Go("controller", func(p *sim.Proc) {
		p.SleepUntil(sim.Time(cfg.ReconfigAt))
		if commID == 0 {
			errs = append(errs, fmt.Errorf("communicator not ready at reconfig time"))
			return
		}
		if err := dep.Reconfigure(p, commID, reversed(dep, commID)); err != nil {
			errs = append(errs, err)
		}
	})
	if err := s.RunUntil(sim.Time(cfg.RunFor)); err != nil {
		return nil, err
	}
	ph.endWorld(len(series))
	ph.events = w.events
	ph.attempted = len(series) + 1
	if len(errs) > 0 {
		ph.fail("%v", errs[0])
	}
	before, degraded, recovered := phaseMeans(cfg, series)
	frac := recovered / before
	ph.add("sim_recovery_frac", frac)
	// The paper's Fig. 7 claim: the background flow costs bandwidth and
	// the reversal wins it back.
	if !(degraded < before) || !(frac >= 0.95) {
		ph.fail("fig7: before %.4g degraded %.4g recovered %.4g GB/s", before/1e9, degraded/1e9, recovered/1e9)
	}
	ph.fingerprint = fmt.Sprintln(len(series), before, degraded, recovered)
	if instrument {
		prom, err := promText(w.sampler.Registry())
		if err != nil {
			return nil, err
		}
		if err := addInstrumentation(ph, prom, len(w.sampler.Samples()), w.rec.Dropped()); err != nil {
			return nil, err
		}
		tally.addTo(ph)
		w.fabric.FlushTrace()
		rec := w.rec.Snapshot()
		ph.analyze = analyzeRecording(rec, nil)
	}
	return ph, nil
}

// reversed is the provider's Fig. 7 move: every channel's ring order
// reversed, routes kept.
func reversed(dep *mccsd.Deployment, id spec.CommID) spec.Strategy {
	var rev spec.Strategy
	for _, ci := range dep.View() {
		if ci.ID != id {
			continue
		}
		for _, ch := range ci.Strategy.Channels {
			order := append([]int(nil), ch.Order...)
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
			rev.Channels = append(rev.Channels, spec.ChannelSpec{Order: order, Route: ch.Route})
		}
	}
	return rev
}

// phaseMeans averages rank 0's iteration bandwidth before the
// background flow, until the reversal, and after a settle window,
// exactly as the showcase reports them.
func phaseMeans(cfg harness.ReconfigConfig, series []harness.TimePoint) (before, degraded, recovered float64) {
	var nb, nd, nr int
	settle := sim.Time(cfg.ReconfigAt) + sim.Time(500*time.Millisecond)
	for _, pt := range series {
		switch {
		case pt.T < sim.Time(cfg.BgStart):
			before += pt.AlgBW
			nb++
		case pt.T < sim.Time(cfg.ReconfigAt):
			degraded += pt.AlgBW
			nd++
		case pt.T >= settle:
			recovered += pt.AlgBW
			nr++
		}
	}
	return before / float64(nb), degraded / float64(nd), recovered / float64(nr)
}

func replayRing(seed uint64, seconds float64) (string, error) {
	res, err := harness.RunReconfigShowcase(ringConfig(seed, seconds))
	if err != nil {
		return "", err
	}
	return fmt.Sprintln(len(res.Series), res.Before, res.Degraded, res.Recovered), nil
}
