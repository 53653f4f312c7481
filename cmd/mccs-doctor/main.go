// mccs-doctor replays a flight-recorder dump through the online health
// diagnosis engine and prints the incident timeline: hung collectives,
// straggler GPUs, degraded links, reconfiguration stalls, SLO breach
// episodes and admission queueing, each attributed to a blamed entity
// with a confidence score. When the recording carries remediation spans
// (the remediation engine was attached to the run), incidents
// additionally report when they were remediated and recovered, and the
// report closes with a SELF-HEALING section giving the median
// time-to-recover.
//
//	mccs-doctor trace.json                    # text timeline to stdout
//	mccs-doctor trace.json telemetry.jsonl    # + SLO violations from telemetry
//	mccs-doctor -jsonl incidents.jsonl trace.json
//
// trace.json is the Chrome trace-event file written by the -trace or
// -doctor flags of mccs-bench (fig6/fig7/fig8) / mccs-churn (or a chaos
// failure dump); telemetry.jsonl is the matching -telemetry series. The
// same engine attaches live via those harnesses' -doctor flags — replay
// of the same recording produces the identical report byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mccs/internal/diagnosis"
	"mccs/internal/harness"
	"mccs/internal/telemetry"
	"mccs/internal/trace"
)

func main() {
	jsonlPath := flag.String("jsonl", "", "also write the incident report as JSONL here")
	flag.Usage = usage
	flag.Parse()
	if err := run(flag.Args(), *jsonlPath, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mccs-doctor:", err)
		os.Exit(1)
	}
}

// run is the CLI body, split out so tests can drive it end to end.
func run(args []string, jsonlPath string, stdout io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		usage()
		return fmt.Errorf("expected trace.json [telemetry.jsonl], got %d args", len(args))
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	rec, err := trace.ReadChrome(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("parsing %s: %w", args[0], err)
	}

	var se *telemetry.Series
	if len(args) == 2 {
		tf, err := os.Open(args[1])
		if err != nil {
			return err
		}
		se, err = telemetry.ReadJSONL(tf)
		tf.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", args[1], err)
		}
	}

	rep := diagnosis.Analyze(rec, se, diagnosis.DefaultConfig())
	if jsonlPath != "" {
		if err := harness.WriteFile(jsonlPath, rep.WriteJSONL); err != nil {
			return err
		}
	}
	return rep.WriteText(stdout)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mccs-doctor [-jsonl incidents.jsonl] trace.json [telemetry.jsonl]

Replays a flight-recorder dump (Chrome trace-event JSON from the -trace
or -doctor flags of mccs-bench (fig6/fig7/fig8) / mccs-churn, or a chaos
failure dump) through the health diagnosis engine and prints the
incident timeline. Pass the matching -telemetry JSONL as a second
argument to fold SLO violations into the diagnosis. Recordings from
runs with the self-healing loop attached additionally carry per-incident
remediation/recovery timestamps and a median time-to-recover summary.
`)
	flag.PrintDefaults()
}
