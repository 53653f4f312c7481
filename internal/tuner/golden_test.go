// Golden cost-model tests: the model's predicted ordering of candidate
// strategies must agree with what the packet-level simulation actually
// measures, and the full ranking on the paper's Fig. 6 scenario is
// pinned so silent model drift fails loudly.
package tuner_test

import (
	"testing"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/policy"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/tuner"
)

// fig6Comm reconstructs the communicator the harness builds for an
// 8-GPU single-app run: both GPUs of every host, hosts rack-interleaved
// (the tenant's topology-oblivious launcher order).
func fig6Comm(t *testing.T, c *topo.Cluster) *spec.CommInfo {
	t.Helper()
	gpus, err := harness.SingleAppGPUs(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	info := &spec.CommInfo{ID: 1, App: "bench"}
	for i, g := range gpus {
		info.Ranks = append(info.Ranks, spec.RankInfo{
			Rank: i, GPU: g, Host: c.HostOfGPU(g), NIC: c.NICOfGPU(g),
		})
	}
	return info
}

// prodTuner returns the controller-built model and candidate space — the
// exact artifacts the production Autotune path uses.
func prodTuner(t *testing.T, opts policy.AutotuneOptions) (*tuner.Model, []tuner.Candidate, *spec.CommInfo) {
	t.Helper()
	env, err := harness.NewEnv(harness.EnvConfig{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctrl := policy.NewController(env.Deployment)
	info := fig6Comm(t, env.Cluster)
	m := ctrl.TuneModel(true)
	cands := tuner.Candidates(info, ctrl.TuneSpace(info, opts), opts.Bytes)
	return m, cands, info
}

// measure runs one candidate strategy through the full simulated stack
// and returns the mean per-op completion time in seconds.
func measure(t *testing.T, st spec.Strategy, bytes int64) float64 {
	t.Helper()
	res, err := harness.RunSingleAppWithStrategy(harness.SingleAppConfig{
		System: ncclsim.MCCS, Op: collective.AllReduce, Bytes: bytes,
		NumGPUs: 8, Warmup: 2, Iters: 4, Trials: 3,
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	return float64(bytes) / res.AlgBW.Mean
}

// The core golden property: for candidate pairs the model separates
// clearly, the simulation must agree on which is faster.
func TestPredictedOrderMatchesMeasured(t *testing.T) {
	const bytes = 64 << 20
	m, cands, info := prodTuner(t, policy.AutotuneOptions{
		Op: collective.AllReduce, Bytes: bytes,
	})
	byName := make(map[string]tuner.Candidate, len(cands))
	for _, c := range cands {
		byName[c.Name] = c
	}
	pairs := [][2]string{
		// Zigzag rank-order ring vs locality ring: Fig. 6's headline gap.
		{"ring/rank/ch1/ecmp", "ring/locality/ch1/ecmp"},
		// Single locality ring vs two pinned rings: NIC striping + route
		// pinning (NCCL(OR) vs full MCCS).
		{"ring/locality/ch1/ecmp", "ring/locality/ch2/pin"},
		// Zigzag vs the full MCCS configuration.
		{"ring/rank/ch1/ecmp", "ring/locality/ch2/pin"},
	}
	for _, pair := range pairs {
		slow, fast := byName[pair[0]], byName[pair[1]]
		if slow.Name == "" || fast.Name == "" {
			t.Fatalf("candidate set missing %v", pair)
		}
		pSlow := m.Predict(info, &slow.Strategy, collective.AllReduce, bytes)
		pFast := m.Predict(info, &fast.Strategy, collective.AllReduce, bytes)
		if pFast >= pSlow {
			t.Errorf("model: %s (%v) not predicted faster than %s (%v)",
				fast.Name, pFast, slow.Name, pSlow)
			continue
		}
		mSlow := measure(t, slow.Strategy, bytes)
		mFast := measure(t, fast.Strategy, bytes)
		if mFast >= mSlow {
			t.Errorf("sim disagrees: %s measured %.3gs, %s measured %.3gs",
				fast.Name, mFast, slow.Name, mSlow)
		}
	}
}

// Tree-vs-ring crossover: the model and the simulation must agree that
// the binomial tree wins small AllReduces and loses large ones.
func TestPredictedTreeCrossoverMatchesMeasured(t *testing.T) {
	env, err := harness.NewEnv(harness.EnvConfig{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctrl := policy.NewController(env.Deployment)
	info := fig6Comm(t, env.Cluster)
	m := ctrl.TuneModel(true)

	ring := spec.Strategy{}
	order := policy.LocalityRing(env.Cluster, info.Ranks)
	ring.Channels = []spec.ChannelSpec{{Order: order, Route: spec.RouteECMP}}
	tree := ring.Clone()
	tree.TreeThreshold = 1 << 62

	for _, tc := range []struct {
		bytes    int64
		treeWins bool
	}{
		// Sizes sit well clear of the crossover region (~64 KB in the
		// simulation) so small model/sim disagreement there can't flake.
		{16 << 10, true},
		{64 << 20, false},
	} {
		pTree := m.Predict(info, &tree, collective.AllReduce, tc.bytes)
		pRing := m.Predict(info, &ring, collective.AllReduce, tc.bytes)
		if (pTree < pRing) != tc.treeWins {
			t.Errorf("model at %d bytes: tree %v ring %v, want treeWins=%v",
				tc.bytes, pTree, pRing, tc.treeWins)
			continue
		}
		mTree := measure(t, tree, tc.bytes)
		mRing := measure(t, ring, tc.bytes)
		if (mTree < mRing) != tc.treeWins {
			t.Errorf("sim at %d bytes: tree %.3gs ring %.3gs, want treeWins=%v",
				tc.bytes, mTree, mRing, tc.treeWins)
		}
	}
}

// Pinned ranking snapshot for the Fig. 6 scenario: any change to the
// model, the candidate generator or the timing constants that reshuffles
// the decision shows up here as an explicit diff.
func TestFig6RankingSnapshot(t *testing.T) {
	const bytes = 64 << 20
	m, cands, info := prodTuner(t, policy.AutotuneOptions{
		Op: collective.AllReduce, Bytes: bytes,
	})
	d, err := m.Search(info, cands, collective.AllReduce, bytes)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range d.Scored {
		got = append(got, sc.Name)
	}
	want := []string{
		"ring/locality-rev/ch2/pin",
		"ring/locality/ch2/pin",
		"ring/locality-rev/ch2/ecmp",
		"ring/locality/ch2/ecmp",
		"ring/locality-rev/ch1/pin",
		"ring/locality/ch1/pin",
		"ring/rank/ch2/pin",
		"hd/ch2/pin",
		"ring/locality-rev/ch1/ecmp",
		"ring/locality/ch1/ecmp",
		"hd/ch2/ecmp",
		"ring/rank/ch2/ecmp",
		"hd/ch1/ecmp",
		"hd/ch1/pin",
		"ring/rank/ch1/ecmp",
		"ring/rank/ch1/pin",
		"tree",
	}
	if len(got) != len(want) {
		t.Fatalf("ranking has %d entries, want %d:\n%q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank %d: got %q, want %q", i, got[i], want[i])
		}
	}
}
