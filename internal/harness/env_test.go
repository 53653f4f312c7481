package harness

import (
	"testing"

	"mccs/internal/leakcheck"
	"mccs/internal/ncclsim"
	"mccs/internal/sim"
)

// TestMain fails the package if a test leaves a world behind. On a
// 2-CPU host the package ends with 0.2 MB of heap after GC and a 105 MB
// peak RSS; the RSS budget is about twice that.
func TestMain(m *testing.M) {
	leakcheck.Main(m, leakcheck.Budget{HeapMB: 4, PeakRSSMB: 200})
}

// newTestEnv builds a world that is closed when the test ends.
func newTestEnv(t *testing.T, cfg EnvConfig) *Env {
	t.Helper()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

// Close is idempotent on worlds in every state: never run, run to
// completion, and stopped with a parked process still waiting.
func TestEnvCloseIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(env *Env) error
	}{
		{"never-run", func(*Env) error { return nil }},
		{"drained", func(env *Env) error {
			env.S.Go("sleeper", func(p *sim.Proc) { p.Sleep(1) })
			return env.S.Run()
		}},
		{"parked", func(env *Env) error {
			env.S.GoDaemon("waiter", func(p *sim.Proc) { (&sim.Event{}).Wait(p) })
			return env.S.RunUntil(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, err := NewEnv(EnvConfig{System: ncclsim.MCCS, TraceCap: 64, Instrument: Instrument{TelemetryEvery: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(env); err != nil {
				t.Fatal(err)
			}
			env.Close()
			env.Close()
			if err := env.S.Run(); err != nil {
				t.Fatalf("Run after Close: %v", err)
			}
		})
	}
}
