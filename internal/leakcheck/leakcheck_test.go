package leakcheck

import (
	"runtime"
	"strings"
	"testing"
)

func TestUsageCheck(t *testing.T) {
	b := Budget{HeapMB: 10, PeakRSSMB: 100}
	for _, tc := range []struct {
		name           string
		u              usage
		goroutinesOnly bool
		want           []string // substrings of the error; none means pass
	}{
		{"within", usage{HeapMB: 9, PeakRSSMB: 99}, false, nil},
		{"goroutine", usage{Goroutines: 1}, false, []string{"1 goroutines"}},
		{"heap and rss", usage{HeapMB: 11, PeakRSSMB: 101}, false, []string{"heap after GC", "peak RSS"}},
		{"no rss reading", usage{PeakRSSMB: -1}, false, nil},
		{"goroutines only", usage{HeapMB: 11, PeakRSSMB: 101}, true, nil},
		{"goroutines only leak", usage{Goroutines: 2, HeapMB: 11}, true, []string{"2 goroutines"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.u.check(b, tc.goroutinesOnly)
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want an error mentioning %q", tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// measure counts a goroutine that outlives its baseline and waits for
// one that is already stopping.
func TestMeasureGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	go func() { <-stop }()
	if u := measure(base); u.Goroutines != 1 {
		t.Errorf("leaked goroutines = %d, want 1", u.Goroutines)
	}
	close(stop)
	if u := measure(base); u.Goroutines != 0 {
		t.Errorf("after stop: leaked goroutines = %d, want 0", u.Goroutines)
	}
}
