// mccs-bench regenerates the paper's figures and runs the self-healing
// smoke. Bare mccs-bench is Figure 6; a subcommand selects another:
//
//	mccs-bench [flags]            Fig. 6  single-application bandwidth
//	mccs-bench fig2 [flags]       Fig. 2  training-time breakdown
//	mccs-bench fig3 [flags]       Fig. 3  cross-rack flows of random rings
//	mccs-bench fig7 [flags]       Fig. 7  ring reconfiguration timeline
//	mccs-bench fig8 [flags]       Fig. 8  multi-application bus bandwidth
//	mccs-bench fig9 [flags]       Fig. 9  QoS job completion times
//	mccs-bench fig10              Fig. 10 dynamic-arrival QoS timeline
//	mccs-bench fig11 [flags]      Fig. 11 768-GPU cluster simulation
//	mccs-bench selfheal [flags]   chaos self-heal seeds with the recovery loop
//
// fig6, fig7 and fig8 share -trace, -telemetry, -doctor and -autotune
// (harness.InstrumentFlags). `mccs-bench <cmd> -h` lists a command's
// flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mccs/internal/collective"
	"mccs/internal/harness"
	"mccs/internal/metrics"
	"mccs/internal/ncclsim"
)

// command is one figure. define registers the command's flags and
// returns its body.
type command struct {
	name   string
	about  string
	define func(fs *flag.FlagSet) func(w io.Writer) error
}

var commands = []command{
	{"fig6", "single-application AllReduce/AllGather bandwidth (the default)", fig6},
	{"fig2", "training-time breakdown of four production model profiles", fig2},
	{"fig3", "cross-rack flow ratio of random rings vs job size", fig3},
	{"fig7", "ring reversal under a background flow on a switch ring", fig7},
	{"fig8", "multi-application bus bandwidth in the Fig. 5b placements", fig8},
	{"fig9", "QoS job completion time under ECMP / FFA / PFA / PFA+TS", fig9},
	{"fig10", "QoS throughput timeline under dynamic arrivals", fig10},
	{"fig11", "768-GPU cluster simulation: speedup CDF of OR and OR+FFA", fig11},
	{"selfheal", "chaos self-heal seeds with the detect-diagnose-recover loop", selfheal},
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mccs-bench:", err)
		os.Exit(1)
	}
}

// run dispatches one invocation: it picks the command, parses its flags
// and runs it, writing every report to w.
func run(args []string, w io.Writer) error {
	cmd := commands[0]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		found := false
		for _, c := range commands {
			if c.name == args[0] {
				cmd, found = c, true
			}
		}
		if !found {
			usage(os.Stderr)
			return fmt.Errorf("unknown command %q", args[0])
		}
		args = args[1:]
	}
	fs := flag.NewFlagSet("mccs-bench "+cmd.name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mccs-bench %s [flags] — %s\n", cmd.name, cmd.about)
		fs.PrintDefaults()
		usage(fs.Output())
	}
	body := cmd.define(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected arguments %q", cmd.name, fs.Args())
	}
	return body(w)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "\ncommands (bare mccs-bench runs fig6):")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-9s %s\n", c.name, c.about)
	}
}

// fig6 regenerates Figure 6: single-application AllReduce/AllGather
// algorithm bandwidth on the 4-host testbed across data sizes, for the
// four systems NCCL, NCCL(OR), MCCS(-FA) and MCCS. -autotune adds an
// MCCS(auto) column: full MCCS with the autotuner picking each cell's
// strategy.
func fig6(fs *flag.FlagSet) func(io.Writer) error {
	sh := harness.InstrumentFlags(fs)
	opFlag := fs.String("op", "both", "collective: allreduce, allgather or both")
	gpusFlag := fs.String("gpus", "4,8", "comma-separated GPU counts (4 and/or 8)")
	sizesFlag := fs.String("sizes", "32K,128K,512K,2M,8M,32M,128M,512M", "comma-separated data sizes")
	iters := fs.Int("iters", 5, "measured iterations per trial")
	warmup := fs.Int("warmup", 2, "warmup iterations per trial")
	trials := fs.Int("trials", 5, "ECMP-salt trials (variance sampling)")
	return func(w io.Writer) error {
		sizes, err := parseSizes(*sizesFlag)
		if err != nil {
			return err
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
			return fmt.Errorf("unknown -op %q", *opFlag)
		}
		var gpuCounts []int
		for _, s := range strings.Split(*gpusFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return err
			}
			gpuCounts = append(gpuCounts, n)
		}

		// Only the very first cell is instrumented: one recording is the
		// debugging artifact; instrumenting every cell would just
		// overwrite it.
		in := sh.Instrument
		for _, op := range ops {
			for _, nGPU := range gpuCounts {
				fmt.Fprintf(w, "\n[Fig. 6] %v, %d GPUs — algorithm bandwidth (GB/s), mean [p5, p95] over %d trials\n",
					op, nGPU, *trials)
				fmt.Fprintf(w, "%-8s", "size")
				for _, sys := range ncclsim.Systems() {
					fmt.Fprintf(w, " %24s", sys)
				}
				if sh.Autotune {
					fmt.Fprintf(w, " %24s", "MCCS(auto)")
				}
				fmt.Fprintln(w)
				for _, size := range sizes {
					fmt.Fprintf(w, "%-8s", metrics.HumanBytes(size))
					cells := make([]harness.SingleAppConfig, 0, len(ncclsim.Systems())+1)
					for _, sys := range ncclsim.Systems() {
						cells = append(cells, harness.SingleAppConfig{
							System: sys, Op: op, Bytes: size, NumGPUs: nGPU,
							Warmup: *warmup, Iters: *iters, Trials: *trials,
						})
					}
					if sh.Autotune {
						cells = append(cells, harness.SingleAppConfig{
							System: ncclsim.MCCS, Op: op, Bytes: size, NumGPUs: nGPU,
							Warmup: *warmup, Iters: *iters, Trials: *trials,
							Autotune: true,
						})
					}
					for _, cell := range cells {
						cell.Instrument, in = in, harness.Instrument{}
						res, err := harness.RunSingleApp(cell)
						if err != nil {
							return fmt.Errorf("%v %v %d: %w", cell.System, op, size, err)
						}
						s := res.AlgBW
						fmt.Fprintf(w, "  %6.2f [%5.2f, %5.2f]", s.Mean/1e9, s.P5/1e9, s.P95/1e9)
					}
					fmt.Fprintln(w)
				}
			}
		}
		sh.Report(w)
		return nil
	}
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
