// mccs-churn runs the tenant-churn experiment: a seeded Poisson-ish
// stream of training jobs arrives at the Fig. 6 testbed, and the
// lifecycle orchestrator admits them against quotas, packs them onto
// free GPUs locality-first, runs their traces through the MCCS service,
// tears them down on completion, and recomputes network policy on every
// arrival and departure. The report is the per-job JCT/queueing-delay
// table plus cluster utilization and the reconfiguration count.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"mccs/internal/harness"
	"mccs/internal/orchestrator"
	"mccs/internal/spec"
)

func main() {
	jobs := flag.Int("jobs", 8, "number of jobs in the arrival stream")
	seed := flag.Uint64("seed", 1, "arrival-stream seed (same seed, same report)")
	meanGap := flag.Duration("gap", 30*time.Millisecond, "mean exponential inter-arrival gap")
	noReconfig := flag.Bool("no-reconfig", false, "disable churn-triggered FFA reconfiguration")
	placer := flag.String("placer", "binpack", "placement policy: binpack or rack-spread")
	quota := flag.String("quota", "", "per-tenant GPU quotas, e.g. tenant-a=4,tenant-b=8")
	shared := harness.InstrumentFlags(flag.CommandLine) // -autotune re-plans each surviving communicator on churn
	flag.Parse()

	cfg := harness.DefaultChurnConfig()
	cfg.Jobs = *jobs
	cfg.Seed = *seed
	cfg.MeanGap = *meanGap
	cfg.Reconfigure = !*noReconfig
	cfg.Autotune = shared.Autotune
	cfg.Instrument = shared.Instrument
	switch *placer {
	case "binpack":
		cfg.Placer = orchestrator.BinPack{}
	case "rack-spread":
		cfg.Placer = orchestrator.RackSpread{}
	default:
		log.Fatalf("unknown placer %q (binpack or rack-spread)", *placer)
	}
	if *quota != "" {
		cfg.Quota = make(map[spec.AppID]int)
		for _, kv := range strings.Split(*quota, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				log.Fatalf("bad quota entry %q (want tenant=N)", kv)
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				log.Fatalf("bad quota entry %q (want tenant=N)", kv)
			}
			cfg.Quota[spec.AppID(parts[0])] = n
		}
	}

	res, err := harness.RunChurn(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[churn] %d jobs, seed %d, placer %s, reconfig=%v autotune=%v\n\n",
		cfg.Jobs, cfg.Seed, *placer, cfg.Reconfigure, cfg.Autotune)
	fmt.Print(harness.FormatChurnTable(res))
	shared.Report(os.Stdout)
}
