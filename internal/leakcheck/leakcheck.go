// Package leakcheck gates what a test binary leaves behind once its
// tests are done: goroutines that outlived them, heap that stays
// reachable, and the process's peak resident set. A package opts in
// from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m, leakcheck.Budget{...}) }
package leakcheck

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Budget bounds one test binary's footprint.
type Budget struct {
	// HeapMB bounds the live heap after two garbage collections.
	HeapMB float64
	// PeakRSSMB bounds the process's peak resident set (VmHWM). It is
	// checked on Linux only.
	PeakRSSMB float64
}

// usage is what a test binary left behind.
type usage struct {
	// Goroutines is the live goroutine count over the count before the
	// tests ran.
	Goroutines int
	HeapMB     float64
	// PeakRSSMB is -1 where /proc/self/status is not available.
	PeakRSSMB float64
}

// settle is how long stopped goroutines get to finish exiting.
const settle = 2 * time.Second

// Main runs the tests, prints what they left behind and exits non-zero
// if the tests failed, any goroutine outlived them, or the footprint is
// over b. Race builds and benchmark runs check goroutines only.
func Main(m *testing.M, b Budget) {
	base := runtime.NumGoroutine()
	code := m.Run()
	u := measure(base)
	fmt.Printf("leakcheck: %d leaked goroutines, %.1f MB heap after GC, %.1f MB peak RSS\n", u.Goroutines, u.HeapMB, u.PeakRSSMB)
	if code == 0 {
		if err := u.check(b, memoryUnbounded()); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// measure reports the footprint relative to a goroutine baseline,
// giving goroutines that are already stopping time to exit first.
func measure(baseGoroutines int) usage {
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		Goroutines: runtime.NumGoroutine() - baseGoroutines,
		HeapMB:     float64(ms.HeapAlloc) / (1 << 20),
		PeakRSSMB:  peakRSSMB(),
	}
}

// check returns an error naming every bound u exceeds. With goroutinesOnly
// set only the goroutine count is checked.
func (u usage) check(b Budget, goroutinesOnly bool) error {
	var over []string
	if u.Goroutines > 0 {
		over = append(over, fmt.Sprintf("%d goroutines outlived the tests", u.Goroutines))
	}
	if !goroutinesOnly {
		if u.HeapMB > b.HeapMB {
			over = append(over, fmt.Sprintf("heap after GC %.1f MB exceeds its %.0f MB budget", u.HeapMB, b.HeapMB))
		}
		if u.PeakRSSMB > b.PeakRSSMB {
			over = append(over, fmt.Sprintf("peak RSS %.1f MB exceeds its %.0f MB budget", u.PeakRSSMB, b.PeakRSSMB))
		}
	}
	if len(over) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(over, "; "))
}

// memoryUnbounded reports a run the memory budgets do not describe: the
// race detector multiplies memory use, and a benchmark run is sized by
// its -benchtime.
func memoryUnbounded() bool {
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		return true
	}
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// peakRSSMB reads VmHWM from /proc/self/status, or returns -1.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return -1
		}
		return kb / 1024
	}
	return -1
}
