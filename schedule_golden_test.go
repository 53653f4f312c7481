// Schedule-fingerprint golden: the (at, seq) observer stream of one
// representative multi-tenant run, hashed and pinned. The stream is a
// complete fingerprint of the simulation schedule (see
// sim.Scheduler.SetObserver), so any sim-core change that perturbs the
// interleaving — and would therefore silently invalidate the chaos
// corpus and every same-seed golden — fails here loudly instead.
//
// If this test fails, the change is NOT schedule-neutral. Either make
// it neutral, or deliberately re-pin the constants below and re-pin
// every schedule-derived golden in the same commit (chaos corpus,
// orchestrator schedule, tuner snapshots), explaining why in CHANGES.md.
package mccs_test

import (
	"testing"

	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

// Pinned fingerprint of the run below, captured from the container/heap
// scheduler core before the pooled-arena overhaul (PR 8) and preserved
// byte-for-byte by it.
const (
	goldenScheduleHash   = uint64(0x859dfc2a04ffa546)
	goldenScheduleEvents = 5195
)

func TestScheduleFingerprintGolden(t *testing.T) {
	env, err := harness.NewEnv(harness.EnvConfig{System: ncclsim.MCCS})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	// FNV-1a over the little-endian (at, seq) pairs of every fired event.
	const fnvOffset, fnvPrime = uint64(14695981039346656037), uint64(1099511628211)
	hash, events := fnvOffset, 0
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= v & 0xff
			hash *= fnvPrime
			v >>= 8
		}
	}
	env.S.SetObserver(func(at sim.Time, seq uint64) {
		mix(uint64(at))
		mix(seq)
		events++
	})

	// The Fig. 2 shape: four production-profile tenants training
	// concurrently through the service — every layer (shim, proxy,
	// transport, fabric, gpusim) contributes events.
	profiles := workload.ProductGroupProfiles()
	results := make([]*workload.Result, len(profiles))
	for pi, tr := range profiles {
		pi := pi
		g := func(h topo.HostID, idx int) topo.GPUID { return env.Cluster.Hosts[h].GPUs[idx] }
		gpus := []topo.GPUID{g(topo.HostID(pi/2), pi%2), g(topo.HostID(2+pi/2), pi%2)}
		fut := workload.Launch(workload.RunConfig{
			Dep: env.Deployment, App: spec.AppID(tr.Name), Key: tr.Name,
			GPUs: gpus, Trace: tr, Iterations: 2,
		})
		env.S.Go("collect", func(p *sim.Proc) { results[pi] = fut.Wait(p) })
	}
	if err := env.S.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r == nil || r.Err != nil {
			t.Fatalf("tenant run failed: %+v", r)
		}
	}
	if hash != goldenScheduleHash || events != goldenScheduleEvents {
		t.Fatalf("schedule fingerprint changed: hash=%#x events=%d, want hash=%#x events=%d\n"+
			"The simulation schedule is no longer byte-identical; see this test's package comment.",
			hash, events, goldenScheduleHash, goldenScheduleEvents)
	}
}
