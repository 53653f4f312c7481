// mccs-bench regenerates Figure 6: single-application AllReduce/AllGather
// algorithm bandwidth on the 4-host testbed across data sizes, for the
// four systems NCCL, NCCL(OR), MCCS(-FA) and MCCS.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
)

func main() {
	opFlag := flag.String("op", "both", "collective: allreduce, allgather or both")
	gpusFlag := flag.String("gpus", "4,8", "comma-separated GPU counts (4 and/or 8)")
	sizesFlag := flag.String("sizes", "32K,128K,512K,2M,8M,32M,128M,512M", "comma-separated data sizes")
	iters := flag.Int("iters", 5, "measured iterations per trial")
	warmup := flag.Int("warmup", 2, "warmup iterations per trial")
	trials := flag.Int("trials", 5, "ECMP-salt trials (variance sampling)")
	in := harness.InstrumentFlags()
	autotune := flag.Bool("autotune", false, "add an MCCS(auto) column: full MCCS with the strategy autotuner picking each cell's strategy")
	flag.Parse()
	outputs := *in

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		log.Fatal(err)
	}
	var ops []collective.Op
	switch *opFlag {
	case "allreduce":
		ops = []collective.Op{collective.AllReduce}
	case "allgather":
		ops = []collective.Op{collective.AllGather}
	case "both":
		ops = []collective.Op{collective.AllGather, collective.AllReduce}
	default:
		log.Fatalf("unknown -op %q", *opFlag)
	}
	var gpuCounts []int
	for _, s := range strings.Split(*gpusFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			log.Fatal(err)
		}
		gpuCounts = append(gpuCounts, n)
	}

	for _, op := range ops {
		for _, nGPU := range gpuCounts {
			fmt.Printf("\n[Fig. 6] %v, %d GPUs — algorithm bandwidth (GB/s), mean [p5, p95] over %d trials\n",
				op, nGPU, *trials)
			fmt.Printf("%-8s", "size")
			for _, sys := range ncclsim.Systems() {
				fmt.Printf(" %24s", sys)
			}
			if *autotune {
				fmt.Printf(" %24s", "MCCS(auto)")
			}
			fmt.Println()
			for _, size := range sizes {
				fmt.Printf("%-8s", metrics.HumanBytes(size))
				cells := make([]harness.SingleAppConfig, 0, len(ncclsim.Systems())+1)
				for _, sys := range ncclsim.Systems() {
					cells = append(cells, harness.SingleAppConfig{
						System: sys, Op: op, Bytes: size, NumGPUs: nGPU,
						Warmup: *warmup, Iters: *iters, Trials: *trials,
					})
				}
				if *autotune {
					cells = append(cells, harness.SingleAppConfig{
						System: ncclsim.MCCS, Op: op, Bytes: size, NumGPUs: nGPU,
						Warmup: *warmup, Iters: *iters, Trials: *trials,
						Autotune: true,
					})
				}
				for _, cell := range cells {
					// Only the very first cell is instrumented: one
					// recording is the debugging artifact; instrumenting
					// every cell would just overwrite it.
					cell.Instrument = *in
					*in = harness.Instrument{}
					res, err := harness.RunSingleApp(cell)
					if err != nil {
						log.Fatalf("%v %v %d: %v", cell.System, op, size, err)
					}
					s := res.AlgBW
					fmt.Printf("  %6.2f [%5.2f, %5.2f]", s.Mean/1e9, s.P5/1e9, s.P95/1e9)
				}
				fmt.Println()
			}
		}
	}
	outputs.Report(os.Stdout)
}

func parseSizes(s string) ([]int64, error) {
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToUpper(tok))
		mult := int64(1)
		switch {
		case strings.HasSuffix(tok, "K"):
			mult, tok = 1<<10, strings.TrimSuffix(tok, "K")
		case strings.HasSuffix(tok, "M"):
			mult, tok = 1<<20, strings.TrimSuffix(tok, "M")
		case strings.HasSuffix(tok, "G"):
			mult, tok = 1<<30, strings.TrimSuffix(tok, "G")
		}
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", tok, err)
		}
		out = append(out, n*mult)
	}
	return out, nil
}
