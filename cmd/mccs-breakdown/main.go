// mccs-breakdown regenerates Figure 2: the training-time breakdown
// (idle / memcpy / compute / communication) of four synthetic production
// model profiles, measured by running each profile's training loop
// through the MCCS service on the testbed.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
	"mccs/internal/spec"
	"mccs/internal/topo"
	"mccs/internal/workload"
)

func main() {
	iters := flag.Int("iters", 5, "iterations per profile")
	flag.Parse()

	env, err := harness.NewEnv(harness.EnvConfig{System: ncclsim.MCCS})
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	profiles := workload.ProductGroupProfiles()
	results := make([]*workload.Result, len(profiles))
	// Each group trains on its own pair of GPUs (one per rack) so the
	// groups contend on the fabric like co-located production jobs.
	for i, tr := range profiles {
		i := i
		g := func(h topo.HostID, idx int) topo.GPUID { return env.Cluster.Hosts[h].GPUs[idx] }
		gpus := []topo.GPUID{g(topo.HostID(i/2), i%2), g(topo.HostID(2+i/2), i%2)}
		fut := workload.Launch(workload.RunConfig{
			Dep: env.Deployment, App: spec.AppID(tr.Name), Key: tr.Name,
			GPUs: gpus, Trace: tr, Iterations: *iters,
		})
		env.S.Go("collect", func(p *sim.Proc) { results[i] = fut.Wait(p) })
	}
	if err := env.S.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("[Fig. 2] training-time breakdown per product group")
	fmt.Printf("%-10s %8s %8s %8s %8s\n", "group", "idle", "memcpy", "compute", "comm")
	for i, r := range results {
		if r.Err != nil {
			log.Fatalf("profile %d: %v", i, r.Err)
		}
		b := r.Breakdown
		fmt.Printf("%-10s %7.1f%% %7.1f%% %7.1f%% %7.1f%%  %s\n",
			strings.TrimPrefix(profiles[i].Name, "group-"),
			100*b.Idle, 100*b.Memcpy, 100*b.Compute, 100*b.Comm,
			bar(b))
	}
}

// bar renders the stacked fractions the way the figure does.
func bar(b workload.Breakdown) string {
	const width = 40
	seg := func(f float64, ch byte) string {
		n := int(f*width + 0.5)
		return strings.Repeat(string(ch), n)
	}
	return seg(b.Idle, '.') + seg(b.Memcpy, 'm') + seg(b.Compute, 'c') + seg(b.Comm, '#')
}
