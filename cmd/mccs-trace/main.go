// mccs-trace inspects flight-recorder dumps written by the -trace flags
// of the benchmark harnesses (Chrome trace-event JSON):
//
//	mccs-trace summarize out.json   # attribution digest: which link gated what
//	mccs-trace dump out.json        # every span, one line each
//
// The same files load directly into Perfetto (ui.perfetto.dev) or
// chrome://tracing for a visual timeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mccs/internal/trace"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) != 2 {
		usage()
		os.Exit(2)
	}
	cmd, path := args[0], args[1]

	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	rec, err := trace.ReadChrome(f)
	f.Close()
	if err != nil {
		fatal(fmt.Errorf("parsing %s: %w", path, err))
	}

	switch cmd {
	case "summarize":
		if err := trace.Summarize(os.Stdout, rec); err != nil {
			fatal(err)
		}
	case "dump":
		dump(rec)
	default:
		usage()
		os.Exit(2)
	}
}

func dump(rec trace.Recording) {
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		fmt.Printf("%14v %10v %-8s", sp.Start, time.Duration(sp.Dur()), sp.Kind)
		if sp.Comm > 0 {
			fmt.Printf(" comm=%d", sp.Comm)
		}
		if sp.Rank >= 0 {
			fmt.Printf(" rank=%d", sp.Rank)
		}
		if sp.Peer >= 0 {
			fmt.Printf(" peer=%d", sp.Peer)
		}
		switch sp.Kind {
		case trace.KindOp, trace.KindStep, trace.KindCmd:
			fmt.Printf(" %s#%d", trace.OpName(sp.Op), sp.Seq)
			if sp.Kind == trace.KindStep {
				fmt.Printf(" step=%d ch=%d", sp.Step, sp.Channel)
			}
		case trace.KindBarrier:
			fmt.Printf(" phase=%s gen=%d", trace.PhaseName(sp.Op), sp.Gen)
		case trace.KindFlow:
			fmt.Printf(" flow=%d route=%v", sp.Flow, sp.Route)
			if sp.Comm > 0 {
				fmt.Printf(" %s#%d step=%d", trace.OpName(sp.Op), sp.Seq, sp.Step)
			}
		case trace.KindXfer:
			fmt.Printf(" nic%d>nic%d", sp.Src, sp.Dst)
		case trace.KindKernel:
			fmt.Printf(" gpu=%d stream=%d", sp.GPU, sp.Flow)
		case trace.KindTuner:
			fmt.Printf(" predicted=%v", time.Duration(sp.Flow))
		}
		if sp.Bytes > 0 {
			fmt.Printf(" bytes=%d", sp.Bytes)
		}
		if sp.Label != "" {
			fmt.Printf(" %q", sp.Label)
		}
		fmt.Println()
	}
	if rec.Dropped > 0 {
		fmt.Printf("(%d spans dropped by ring wrap)\n", rec.Dropped)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mccs-trace <command> <trace.json>

commands:
  summarize   span inventory, per-collective bottleneck attribution,
              barrier timelines, gating-link rollup
  dump        print every span, one line each

trace.json is the Chrome trace-event file written by the -trace flag of
mccs-bench and mccs-bench fig7 (or a chaos failure dump); the same file loads
in Perfetto or chrome://tracing.
`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mccs-trace:", err)
	os.Exit(1)
}
