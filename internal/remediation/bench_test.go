package remediation_test

import (
	"testing"

	"mccs/internal/chaos"
)

// BenchmarkRemediationLoop measures the full closed loop — chaos
// self-heal scenario with the diagnosis engine and the remediation
// daemon attached — against the same scenario without the control loop,
// via BenchmarkSelfHealBaseline. The delta is the cost of detection,
// quarantine bookkeeping, recovery actions and report assembly; both
// are wired into `make bench-sim-json` so regressions show up in the
// benchmark artifact.
func BenchmarkRemediationLoop(b *testing.B) {
	sc := chaos.SelfHeal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hr := chaos.RunSeedHealed(sc, uint64(i)+1)
		if hr.Err != nil {
			b.Fatal(hr.Err)
		}
		if hr.Remediation == nil {
			b.Fatal("no remediation report")
		}
	}
}

// BenchmarkSelfHealBaseline is the control: identical scenario and
// seeds, no diagnosis or remediation attached.
func BenchmarkSelfHealBaseline(b *testing.B) {
	sc := chaos.SelfHeal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := chaos.Run(sc, uint64(i)+1, chaos.Opts{})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}
