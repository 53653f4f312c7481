package mccs_test

import (
	"testing"

	"mccs/internal/leakcheck"
)

// TestMain fails the package if a test leaves a world behind. On a
// 2-CPU host the package ends with 0.1 MB of heap after GC and a 113 MB
// peak RSS; the RSS budget is about twice that.
func TestMain(m *testing.M) {
	leakcheck.Main(m, leakcheck.Budget{HeapMB: 4, PeakRSSMB: 200})
}
