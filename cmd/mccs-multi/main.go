// mccs-multi regenerates Figure 8: per-application bus bandwidth of
// concurrent 128 MB AllReduce tenants in the four Fig. 5b placements,
// under NCCL, NCCL(OR), MCCS(-FFA) and MCCS.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"mccs/internal/harness"
	"mccs/internal/ncclsim"
	"mccs/internal/spec"
	"mccs/internal/topo"
)

func main() {
	bytes := flag.Int64("bytes", 128<<20, "per-iteration AllReduce size")
	iters := flag.Int("iters", 20, "measured iterations")
	warmup := flag.Int("warmup", 4, "warmup iterations")
	trials := flag.Int("trials", 5, "ECMP-salt trials")
	telemetryPath := flag.String("telemetry", "", "sample the first instrumented run's first trial and write the metrics series here (JSONL; .prom for Prometheus text)")
	autotune := flag.Bool("autotune", false, "run the strategy autotuner over every communicator before the measured loops (service-mode systems only)")
	flag.Parse()

	testbed, err := topo.BuildClos(topo.TestbedConfig())
	if err != nil {
		log.Fatal(err)
	}
	for setup := 1; setup <= 4; setup++ {
		apps, err := harness.Setup(testbed, setup)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[Fig. 8] setup %d — bus bandwidth (GB/s), mean [p5, p95] over %d trials\n", setup, *trials)
		fmt.Printf("%-10s", "system")
		var names []spec.AppID
		for _, a := range apps {
			names = append(names, a.Name)
		}
		sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
		for _, n := range names {
			fmt.Printf(" %22s", n)
		}
		fmt.Printf(" %10s\n", "aggregate")
		for _, sys := range ncclsim.Systems() {
			mcfg := harness.MultiAppConfig{
				System: sys, Apps: apps, Bytes: *bytes,
				Warmup: *warmup, Iters: *iters, Trials: *trials,
				Autotune: *autotune,
			}
			// Instrument only the first run that asks for it: one series
			// is the artifact; later runs would overwrite it.
			if *telemetryPath != "" {
				mcfg.TelemetryPath = *telemetryPath
				*telemetryPath = ""
			}
			res, err := harness.RunMultiApp(mcfg)
			if err != nil {
				log.Fatalf("setup %d %v: %v", setup, sys, err)
			}
			fmt.Printf("%-10s", sys)
			for _, n := range names {
				s := res.BusBW[n]
				fmt.Printf("  %5.2f [%5.2f, %5.2f]", s.Mean/1e9, s.P5/1e9, s.P95/1e9)
			}
			fmt.Printf(" %10.2f\n", res.Aggregate/1e9)
		}
	}
}
