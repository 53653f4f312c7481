package chaos

import (
	"testing"

	"mccs/internal/leakcheck"
)

// TestMain fails the package if a seed's world outlives its run. On a
// 2-CPU host the package ends with 0.2 MB of heap after GC and a 387 MB
// peak RSS, set by the doctor and self-heal seeds' megabyte collectives
// on real data: the RSS budget is about 1.5 times that.
func TestMain(m *testing.M) {
	leakcheck.Main(m, leakcheck.Budget{HeapMB: 4, PeakRSSMB: 600})
}
