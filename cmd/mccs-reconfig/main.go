// mccs-reconfig regenerates Figure 7: an 8-GPU AllReduce job on a ring of
// switches, degraded by a 75 Gbps background flow at t=7.5s and restored
// by a provider-issued ring reversal at t=12s.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mccs/internal/harness"
)

func main() {
	runFor := flag.Duration("run", 20*time.Second, "experiment span")
	bgStart := flag.Duration("bg", 7500*time.Millisecond, "background flow start")
	bgGbps := flag.Float64("bg-gbps", 75, "background flow rate (Gbit/s)")
	reconfAt := flag.Duration("reconfig", 12*time.Second, "ring reversal time")
	csv := flag.Bool("csv", false, "emit the full time series as CSV")
	in := harness.InstrumentFlags()
	autotune := flag.Bool("autotune", false, "replace the scripted ring reversal with a strategy-autotuner pass that reads the background flow off the fabric")
	flag.Parse()

	cfg := harness.DefaultReconfigConfig()
	cfg.RunFor = *runFor
	cfg.BgStart = *bgStart
	cfg.BgRate = *bgGbps * 125e6
	cfg.ReconfigAt = *reconfAt
	cfg.Instrument = *in
	cfg.Autotune = *autotune
	res, err := harness.RunReconfigShowcase(cfg)
	if err != nil {
		log.Fatal(err)
	}
	in.Report(os.Stdout)
	if res.Telemetry != nil {
		fmt.Printf("  %d samples, %d SLO violations\n", len(res.Telemetry.Samples), len(res.Telemetry.Violations))
	}

	fmt.Printf("[Fig. 7] 8-GPU 128MB AllReduce on a 4-switch ring, %d iterations\n", len(res.Series))
	fmt.Printf("  phase averages (algorithm bandwidth):\n")
	fmt.Printf("    before background flow:     %6.2f GB/s\n", res.Before/1e9)
	fmt.Printf("    degraded (bg at %6.2fs):   %6.2f GB/s\n", bgStartSec(cfg), res.Degraded/1e9)
	how := "reversal"
	if cfg.Autotune {
		how = "autotune"
	}
	fmt.Printf("    recovered (%s %4.1fs): %6.2f GB/s\n", how, cfg.ReconfigAt.Seconds(), res.Recovered/1e9)
	if *csv {
		fmt.Println("t_seconds,algbw_bytes_per_sec")
		for _, pt := range res.Series {
			fmt.Printf("%.6f,%.0f\n", pt.T.Seconds(), pt.AlgBW)
		}
	}
}

func bgStartSec(cfg harness.ReconfigConfig) float64 { return cfg.BgStart.Seconds() }
