// Smoke tests for every runnable entrypoint: each mccs-bench subcommand
// and each example builds and runs to completion on a tiny
// configuration, producing some output. These catch flag drift, panics
// on startup and experiment-harness wiring breaks that package tests
// (which call the underlying libraries directly) cannot see.
package mccs_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles the given main packages into one temporary
// directory with a single go build and returns it.
func buildTools(t *testing.T, pkgs ...string) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", append([]string{"build", "-o", dir}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func TestEntrypointSmoke(t *testing.T) {
	bin := buildTools(t, "./examples/...", "./cmd/mccs-bench")
	cases := []struct {
		name string
		tool string
		args []string
	}{
		{"quickstart", "quickstart", nil},
		{"multitenant", "multitenant", nil},
		{"training", "training", nil},
		{"reconfig-example", "reconfig", nil},
		{"bench", "mccs-bench", []string{"-gpus=4", "-sizes=1M", "-iters=1", "-warmup=0", "-trials=1"}},
		{"breakdown", "mccs-bench", []string{"fig2", "-iters=1"}},
		{"crossrack", "mccs-bench", []string{"fig3", "-trials=20", "-seed=1"}},
		{"multi", "mccs-bench", []string{"fig8", "-bytes=4194304", "-iters=2", "-warmup=1", "-trials=1"}},
		{"qos", "mccs-bench", []string{"fig9", "-iters-a=2", "-iters-bc=2"}},
		{"qos-dynamic", "mccs-bench", []string{"fig10"}},
		{"reconfig", "mccs-bench", []string{"fig7", "-run=2s", "-bg=500ms", "-reconfig=1s"}},
		{"simcluster", "mccs-bench", []string{"fig11", "-jobs=3", "-iters=2", "-runs=1"}},
		{"selfheal", "mccs-bench", []string{"selfheal", "-seed=1"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command(filepath.Join(bin, tc.tool), tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.tool, tc.args, err, out)
			}
			if len(out) == 0 {
				t.Fatalf("%s %v produced no output", tc.tool, tc.args)
			}
		})
	}
}

// TestTraceFlagSmoke exercises the -trace plumbing end to end: each
// mccs-bench subcommand that accepts -trace writes a file, the file is
// well-formed Chrome trace-event JSON, and mccs-trace can read it back
// and attribute the collectives in it.
func TestTraceFlagSmoke(t *testing.T) {
	bin := buildTools(t, "./cmd/mccs-bench", "./cmd/mccs-trace")
	cases := []struct {
		name string
		args []string
	}{
		{"bench", []string{"-gpus=4", "-sizes=1M", "-iters=1", "-warmup=0", "-trials=1"}},
		{"reconfig", []string{"fig7", "-run=2s", "-bg=500ms", "-reconfig=1s"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "out.trace.json")
			args := append(tc.args, "-trace="+path)
			out, err := exec.Command(filepath.Join(bin, "mccs-bench"), args...).CombinedOutput()
			if err != nil {
				t.Fatalf("mccs-bench %v: %v\n%s", args, err, out)
			}

			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("trace file not written: %v", err)
			}
			var events []json.RawMessage
			if err := json.Unmarshal(raw, &events); err != nil {
				t.Fatalf("trace is not a JSON event array: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("trace has no events")
			}

			sum, err := exec.Command(filepath.Join(bin, "mccs-trace"), "summarize", path).CombinedOutput()
			if err != nil {
				t.Fatalf("mccs-trace summarize: %v\n%s", err, sum)
			}
			for _, want := range []string{"trace:", "collectives"} {
				if !strings.Contains(string(sum), want) {
					t.Errorf("summary missing %q:\n%s", want, sum)
				}
			}
		})
	}
}
