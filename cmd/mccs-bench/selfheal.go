package main

import (
	"flag"
	"fmt"
	"io"

	"mccs/internal/chaos"
	"mccs/internal/harness"
)

// selfheal runs the chaos self-heal scenario with the full
// detect→diagnose→recover loop attached and prints the remediation
// report: every seed-injected link fault must be detected by the
// diagnosis engine, quarantined by the remediation engine, recovered
// through the policy controller (route re-pin, ring reversal, re-tune
// or graceful degradation) and re-admitted after probation — all in
// deterministic virtual time, so the same seed reproduces the same
// report byte for byte. It fails if any seed violates a chaos
// invariant. The JSONL event log (a header record, then one record per
// quarantine, recovery and re-admission) is what `make self-heal`
// archives.
func selfheal(fs *flag.FlagSet) func(io.Writer) error {
	seed := fs.Uint64("seed", 1, "run this seed only (ignored with -seeds > 1)")
	seeds := fs.Int("seeds", 1, "sweep seeds 1..N")
	jsonlPath := fs.String("jsonl", "", "write the remediation event log as JSONL here (last seed)")
	doctorPath := fs.String("doctor", "", "write the diagnosis incident report as JSONL here (last seed)")
	flaps := fs.Int("flaps", 0, "override the scenario's link-flap count")
	return func(w io.Writer) error {
		sc := chaos.SelfHeal()
		if *flaps > 0 {
			sc.LinkFlaps = *flaps
		}
		first, last := *seed, *seed
		if *seeds > 1 {
			first, last = 1, uint64(*seeds)
		}
		var failed int
		for s := first; s <= last; s++ {
			hr := chaos.RunSeedHealed(sc, s)
			fmt.Fprintf(w, "%s\n", hr.Result.String())
			if hr.Err != nil {
				failed++
				continue
			}
			if err := hr.Remediation.WriteText(w); err != nil {
				return err
			}
			if len(hr.Remediation.TimesToRecover()) == 0 {
				fmt.Fprintf(w, "  (no completed recovery episodes this seed)\n")
			}
			fmt.Fprintln(w)
			if s != last {
				continue
			}
			if *jsonlPath != "" {
				if err := harness.WriteFile(*jsonlPath, hr.Remediation.WriteJSONL); err != nil {
					return err
				}
			}
			if *doctorPath != "" {
				if err := harness.WriteFile(*doctorPath, hr.Doctor.WriteJSONL); err != nil {
					return err
				}
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d seeds violated an invariant", failed, int(last-first)+1)
		}
		return nil
	}
}
