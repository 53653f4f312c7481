// These tests pin how the remediation engine reacts to persistent
// unmanaged (External) traffic, the Fig. 7 trigger: it samples every
// link's external rate on its own tick, quarantines a link whose
// external share stays high and moves the tenant off it. They run the
// engine at a quarter-second cadence so the Fig. 7 phases stay visible
// in the bandwidth series.
package harness

import (
	"testing"
	"time"

	"mccs/internal/mccsd"
	"mccs/internal/ncclsim"
	"mccs/internal/netsim"
	"mccs/internal/remediation"
	"mccs/internal/sim"
	"mccs/internal/topo"
)

// newRingWorld builds the Fig. 7 switch ring under full MCCS, closed
// when the test ends.
func newRingWorld(t *testing.T) (*sim.Scheduler, *topo.Cluster, *netsim.Fabric, *mccsd.Deployment) {
	t.Helper()
	cluster, err := SwitchRing(DefaultReconfigConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := newTestEnv(t, EnvConfig{System: ncclsim.MCCS, Cluster: cluster})
	return env.S, env.Cluster, env.Fabric, env.Deployment
}

// startLoopingJob launches an nGPU AllReduce loop and returns the rank-0
// bandwidth series collector.
func startLoopingJob(t *testing.T, s *sim.Scheduler, dep *mccsd.Deployment, cluster *topo.Cluster,
	gpus []topo.GPUID, bytes int64) *[]TimePoint {
	t.Helper()
	series := &[]TimePoint{}
	n := len(gpus)
	count := bytes / 4
	for rank, gpu := range gpus {
		rank, gpu := rank, gpu
		host := cluster.HostOfGPU(gpu)
		s.GoDaemon("job", func(p *sim.Proc) {
			f := dep.Service(host).Frontend("job")
			buf, err := f.MemAlloc(p, gpu, count*4, false)
			if err != nil {
				t.Error(err)
				return
			}
			comm, err := f.CommInitRank(p, "job", n, rank, gpu)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				h, err := comm.AllReduce(p, nil, buf, count, nil)
				if err != nil {
					t.Error(err)
					return
				}
				stats := h.Wait(p)
				if rank == 0 {
					*series = append(*series, TimePoint{T: stats.Done, AlgBW: stats.AlgBW()})
				}
			}
		})
	}
	return series
}

func phaseMean(series []TimePoint, from, to time.Duration) float64 {
	var sum float64
	n := 0
	for _, pt := range series {
		if pt.T >= sim.Time(from) && pt.T < sim.Time(to) {
			sum += pt.AlgBW
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// watchCongestion starts the remediation engine on link evidence alone
// (no diagnosis engine) at a 250 ms cadence: three degraded ticks to
// quarantine, three clean ticks to re-admit.
func watchCongestion(s *sim.Scheduler, dep *mccsd.Deployment) *remediation.Engine {
	eng := remediation.Attach(s, dep, nil, remediation.Config{
		Interval:       250 * time.Millisecond,
		SuspectAfter:   3,
		ProbationAfter: 3,
	})
	eng.Start(nil)
	return eng
}

// count returns how many records of the given action the engine logged
// on link l (any link when l < 0).
func count(rep *remediation.Report, action string, l netsim.LinkID) int {
	n := 0
	for _, a := range rep.Actions {
		if a.Action == action && (l < 0 || a.Link == int32(l)) {
			n++
		}
	}
	return n
}

func generation(dep *mccsd.Deployment) int {
	comm, _ := dep.Comm(dep.View()[0].ID)
	return comm.Runners[0].Generation()
}

// ringLink returns the inter-switch link from rack a to rack b.
func ringLink(t *testing.T, cluster *topo.Cluster, a, b topo.RackID) netsim.LinkID {
	t.Helper()
	link, err := cluster.RingLinkBetween(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

// flood saturates the given directed inter-switch hops with 75 Gbps
// strict-priority external flows lasting dur, starting at at.
func flood(t *testing.T, s *sim.Scheduler, cluster *topo.Cluster, fabric *netsim.Fabric,
	at, dur time.Duration, hops ...[2]topo.RackID) {
	t.Helper()
	const rate = 75 * topo.Gbps
	var links []netsim.LinkID
	for _, h := range hops {
		links = append(links, ringLink(t, cluster, h[0], h[1]))
	}
	s.At(sim.Time(at), func() {
		for _, link := range links {
			l := cluster.Net.Link(link)
			fabric.StartFlow(netsim.FlowOpts{
				Src: l.From, Dst: l.To,
				Bytes: rate * dur.Seconds(),
				Route: []netsim.LinkID{link}, FixedRate: rate,
				External: true,
			})
		}
	})
}

// ringJob starts the Fig. 7 job: every GPU of the switch ring in one
// looping 128 MB AllReduce.
func ringJob(t *testing.T, s *sim.Scheduler, dep *mccsd.Deployment, cluster *topo.Cluster) *[]TimePoint {
	var gpus []topo.GPUID
	for _, h := range cluster.Hosts {
		gpus = append(gpus, h.GPUs...)
	}
	return startLoopingJob(t, s, dep, cluster, gpus, 128<<20)
}

// TestWatcherAutoReversesRing runs the Fig. 7 scenario with no manual
// intervention: the engine sees the external flow, quarantines the link
// and reverses the ring by itself, exactly once. Once reversed, the
// ring no longer sends over the link, so the ladder stops there even
// though the old forward connections still cross it, idle.
func TestWatcherAutoReversesRing(t *testing.T) {
	s, cluster, fabric, dep := newRingWorld(t)
	series := ringJob(t, s, dep, cluster)
	eng := watchCongestion(s, dep)

	// External 75 Gbps flow on a clockwise inter-switch link at t=3s,
	// lasting past the end of the run.
	flood(t, s, cluster, fabric, 3*time.Second, time.Hour, [2]topo.RackID{1, 2})
	if err := s.RunUntil(sim.Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	healthy := phaseMean(*series, 500*time.Millisecond, 3*time.Second)
	// The engine needs SuspectAfter x Interval = 750ms to call it
	// persistent; allow 1.5s, then expect recovery.
	recovered := phaseMean(*series, 6*time.Second, 10*time.Second)
	if healthy == 0 || recovered == 0 {
		t.Fatalf("missing samples (healthy %.3g, recovered %.3g)", healthy, recovered)
	}
	t.Logf("healthy %.2f GB/s, recovered %.2f GB/s", healthy/1e9, recovered/1e9)
	if recovered < 0.9*healthy {
		t.Errorf("engine did not restore bandwidth: %.3g -> %.3g", healthy, recovered)
	}
	rep := eng.Finish()
	if got := rep.RecoveryActions(); len(got) != 1 || got[0].Action != "reverse" {
		t.Errorf("recovery actions = %+v, want exactly one reverse (no escalation)", got)
	}
	if g := generation(dep); g != 1 {
		t.Errorf("generation = %d, want 1", g)
	}
}

// TestWatcherReroutesOnClos: in a spine-leaf fabric the engine prefers
// an immediate route re-pin over a ring reversal — path diversity exists.
func TestWatcherReroutesOnClos(t *testing.T) {
	env := newTestEnv(t, EnvConfig{System: ncclsim.MCCS})
	gpus, err := SingleAppGPUs(env.Cluster, 4)
	if err != nil {
		t.Fatal(err)
	}
	series := startLoopingJob(t, env.S, env.Deployment, env.Cluster, gpus, 32<<20)
	eng := watchCongestion(env.S, env.Deployment)

	// External flow saturating leaf0->spine0 (the pinned path of the
	// job's channel 0) at t=2s.
	env.S.At(sim.Time(2*time.Second), func() {
		var victim netsim.LinkID = -1
		for i := 0; i < env.Cluster.Net.NumLinks(); i++ {
			if env.Cluster.Net.Link(netsim.LinkID(i)).Name == "leaf0->spine0" {
				victim = netsim.LinkID(i)
			}
		}
		l := env.Cluster.Net.Link(victim)
		env.Fabric.StartFlow(netsim.FlowOpts{
			Src: l.From, Dst: l.To, Bytes: 0,
			Route: []netsim.LinkID{victim}, FixedRate: 40 * topo.Gbps,
			External: true,
		})
	})
	if err := env.S.RunUntil(sim.Time(8 * time.Second)); err != nil {
		t.Fatal(err)
	}

	healthy := phaseMean(*series, 200*time.Millisecond, 2*time.Second)
	recovered := phaseMean(*series, 5*time.Second, 8*time.Second)
	if recovered < 0.95*healthy {
		t.Errorf("reroute did not restore bandwidth: %.3g -> %.3g", healthy, recovered)
	}
	// Route re-pin, not a reconfiguration: generation stays 0.
	if g := generation(env.Deployment); g != 0 {
		t.Errorf("generation = %d, want 0 (reroute should not reconfigure)", g)
	}
	if got := eng.Finish().RecoveryActions(); len(got) != 1 || got[0].Action != "repin" {
		t.Errorf("recovery actions = %+v, want exactly one repin", got)
	}
}

// TestWatcherReArmsAfterEpisode: each separate congestion episode on a
// link is handled on its own. The flood follows the ring: 1->2, then
// 2->1 (where the first reversal moved it), then 1->2 again. Link 1->2
// goes through two whole quarantine/re-admit episodes with one reversal
// each, so a link latched after its first episode would show here.
func TestWatcherReArmsAfterEpisode(t *testing.T) {
	s, cluster, fabric, dep := newRingWorld(t)
	ringJob(t, s, dep, cluster)
	eng := watchCongestion(s, dep)

	fwd, back := [2]topo.RackID{1, 2}, [2]topo.RackID{2, 1}
	flood(t, s, cluster, fabric, 2*time.Second, 2*time.Second, fwd)
	flood(t, s, cluster, fabric, 6*time.Second, 2*time.Second, back)
	flood(t, s, cluster, fabric, 10*time.Second, 2*time.Second, fwd)
	if err := s.RunUntil(sim.Time(14 * time.Second)); err != nil {
		t.Fatal(err)
	}

	rep := eng.Finish()
	l12, l21 := ringLink(t, cluster, 1, 2), ringLink(t, cluster, 2, 1)
	for _, c := range []struct {
		link netsim.LinkID
		name string
		want int
	}{{l12, "1->2", 2}, {l21, "2->1", 1}} {
		for _, action := range []string{"quarantine", "readmit", "reverse"} {
			if got := count(rep, action, c.link); got != c.want {
				t.Errorf("link %s: %d %s records, want %d", c.name, got, action, c.want)
			}
		}
	}
	if got := len(rep.RecoveryActions()); got != 3 {
		t.Errorf("%d recovery actions, want 3 (one reversal per episode)", got)
	}
	if g := generation(dep); g != 3 {
		t.Errorf("generation = %d, want 3 (one reversal per episode)", g)
	}
}

// TestWatcherFlappingHysteresis: a flow flapping on and off with gaps
// shorter than the probation window is ONE episode. The link relapses
// from probation into the same quarantine, so the ring is reversed once,
// not on every burst.
func TestWatcherFlappingHysteresis(t *testing.T) {
	s, cluster, fabric, dep := newRingWorld(t)
	ringJob(t, s, dep, cluster)
	eng := watchCongestion(s, dep)

	// 1s hot bursts (>= SuspectAfter hot ticks at 250ms) separated by
	// 300ms gaps (1-2 clean ticks, below ProbationAfter=3).
	hop := [2]topo.RackID{1, 2}
	flood(t, s, cluster, fabric, 2*time.Second, time.Second, hop)
	flood(t, s, cluster, fabric, 3300*time.Millisecond, time.Second, hop)
	flood(t, s, cluster, fabric, 4600*time.Millisecond, time.Second, hop)
	if err := s.RunUntil(sim.Time(9 * time.Second)); err != nil {
		t.Fatal(err)
	}

	rep := eng.Finish()
	if got := count(rep, "quarantine", -1); got != 1 {
		t.Errorf("%d quarantines, want exactly 1 (flapping inside one episode must not re-trigger)", got)
	}
	if got := rep.RecoveryActions(); len(got) != 1 || got[0].Action != "reverse" {
		t.Errorf("recovery actions = %+v, want exactly one reverse", got)
	}
}

// TestWatcherBothDirectionsBounded floods both directions of one hop
// in two separate episodes. No ring direction escapes the flood, so
// the ladder keeps escalating: the bound pinned here is MaxActions
// ladder actions per link and episode, not a single reversal.
func TestWatcherBothDirectionsBounded(t *testing.T) {
	s, cluster, fabric, dep := newRingWorld(t)
	ringJob(t, s, dep, cluster)
	eng := watchCongestion(s, dep)

	hops := [][2]topo.RackID{{1, 2}, {2, 1}}
	flood(t, s, cluster, fabric, 2*time.Second, 2*time.Second, hops...)
	flood(t, s, cluster, fabric, 8*time.Second, 2*time.Second, hops...)
	if err := s.RunUntil(sim.Time(12 * time.Second)); err != nil {
		t.Fatal(err)
	}

	maxActions := remediation.DefaultConfig().MaxActions
	rep := eng.Finish()
	perEpisode := map[int32]int{}
	episodes := 0
	for _, a := range rep.Actions {
		switch a.Action {
		case "quarantine":
			perEpisode[a.Link] = 0
			episodes++
		case "readmit":
			delete(perEpisode, a.Link)
		default:
			if perEpisode[a.Link]++; perEpisode[a.Link] > maxActions {
				t.Errorf("link %s: more than %d ladder actions in one episode: %+v", a.LinkName, maxActions, rep.Actions)
			}
		}
	}
	if episodes < 2 {
		t.Errorf("%d quarantine episodes, want at least one per flood", episodes)
	}
	for _, a := range rep.RecoveryActions() {
		t.Logf("%v %s on %s", a.At.Sub(0), a.Action, a.LinkName)
	}
	if len(rep.RecoveryActions()) == 0 {
		t.Error("no recovery action: the engine ignored the flood")
	}
}
