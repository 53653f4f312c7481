package netsim

import (
	"math"
	"slices"
)

// This file preserves the fabric's original max-min allocator — the
// straightforward map-based implementation that allocated fresh scratch
// on every call — as a differential-testing oracle. The optimized
// allocator in fabric.go must produce bit-identical rates: determinism
// demands identical float accumulation order, so the equivalence tests
// compare with ==, not within an epsilon.
//
// One deliberate deviation from the historical code: frozen-flow
// background load is subtracted from link headroom in flow-ID order
// rather than map-iteration order. The original map iteration made that
// float accumulation order-nondeterministic; flow-ID order is the
// canonical order the optimized allocator uses.
//
// referenceAllocate mutates nothing: it reads the fabric's current flow
// set and returns the would-be allocation.

// referenceAllocate computes max-min fair rates with group coupling and
// rate caps using the retired algorithm. It returns the per-flow rates
// plus the per-link aggregate and external rate accumulations.
func (fb *Fabric) referenceAllocate() (map[*flow]float64, []float64, []float64) {
	linkRate := make([]float64, fb.net.NumLinks())
	externalRate := make([]float64, fb.net.NumLinks())
	result := make(map[*flow]float64, len(fb.flows))
	if len(fb.flows) == 0 {
		return result, linkRate, externalRate
	}
	// Committed in flow-ID order: link-rate sums are float accumulations,
	// and any other order would make their low-order bits diverge from
	// the optimized allocator's.
	ordered := append([]*flow(nil), fb.flows...)
	sortFlowsByID(ordered)
	frozen := make(map[*flow]float64)
	groupFrozen := make(map[*Group]bool)
	hasPriority := false
	for _, fl := range ordered {
		if fl.priority {
			hasPriority = true
			break
		}
	}
	if hasPriority {
		prio := fb.referenceWaterfill(ordered, frozen, func(fl *flow) bool { return fl.priority })
		for fl, r := range prio {
			frozen[fl] = r
		}
	}
	for {
		rates := fb.referenceWaterfill(ordered, frozen, func(fl *flow) bool { return true })
		// Find the unfrozen group with the smallest member-minimum rate.
		var pick *Group
		pickMin := math.Inf(1)
		for _, fl := range ordered {
			g := fl.group
			if g == nil || groupFrozen[g] || len(g.members) == 0 {
				continue
			}
			// Deterministic slowest-member choice on rate ties.
			members := append([]*flow(nil), g.members...)
			sortFlowsByID(members)
			gmin := math.Inf(1)
			for _, m := range members {
				if r := rates[m]; r < gmin {
					gmin = r
				}
			}
			if gmin < pickMin || (gmin == pickMin && pick != nil && g.id < pick.id) {
				pickMin = gmin
				pick = g
			}
		}
		if pick == nil {
			for _, fl := range ordered {
				r, ok := frozen[fl]
				if !ok {
					r = rates[fl]
				}
				result[fl] = r
				for _, l := range fl.Route {
					linkRate[l] += r
					if fl.external {
						externalRate[l] += r
					}
				}
			}
			return result, linkRate, externalRate
		}
		groupFrozen[pick] = true
		for _, m := range pick.members {
			frozen[m] = pickMin
		}
	}
}

// referenceWaterfill is the retired progressive-filling pass: classic
// water-fill over the non-frozen flows, treating frozen flows as fixed
// background load, with per-call map/slice scratch.
func (fb *Fabric) referenceWaterfill(ordered []*flow, frozen map[*flow]float64, include func(*flow) bool) map[*flow]float64 {
	remCap := make([]float64, fb.net.NumLinks())
	nActive := make([]int, fb.net.NumLinks())
	touched := make([]LinkID, 0, 64)
	mark := make([]bool, fb.net.NumLinks())

	active := make([]*flow, 0, len(ordered))
	for _, fl := range ordered {
		if _, ok := frozen[fl]; ok {
			continue
		}
		if !include(fl) {
			continue
		}
		active = append(active, fl)
	}

	for _, l := range fb.net.links {
		remCap[l.ID] = l.Capacity
	}
	for _, fl := range ordered {
		r, ok := frozen[fl]
		if !ok {
			continue
		}
		for _, l := range fl.Route {
			remCap[l] -= r
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
	}
	for _, fl := range active {
		for _, l := range fl.Route {
			nActive[l]++
			if !mark[l] {
				mark[l] = true
				touched = append(touched, l)
			}
		}
	}

	rates := make(map[*flow]float64, len(active))
	level := make(map[*flow]float64, len(active))
	frozenHere := make(map[*flow]bool, len(active))
	remaining := len(active)

	for remaining > 0 {
		inc := math.Inf(1)
		for _, l := range touched {
			if nActive[l] > 0 {
				if h := remCap[l] / float64(nActive[l]); h < inc {
					inc = h
				}
			}
		}
		for _, fl := range active {
			if frozenHere[fl] || fl.maxRate <= 0 {
				continue
			}
			if gap := fl.maxRate - level[fl]; gap < inc {
				inc = gap
			}
		}
		if math.IsInf(inc, 1) {
			for _, fl := range active {
				if !frozenHere[fl] {
					rates[fl] = level[fl]
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, fl := range active {
			if !frozenHere[fl] {
				level[fl] += inc
			}
		}
		for _, l := range touched {
			remCap[l] -= inc * float64(nActive[l])
			if remCap[l] < 0 {
				remCap[l] = 0
			}
		}
		capEps := 1e-6 // bytes/sec; far below any real link scale
		for _, fl := range active {
			if frozenHere[fl] {
				continue
			}
			stop := fl.maxRate > 0 && level[fl] >= fl.maxRate-capEps
			if !stop {
				for _, l := range fl.Route {
					if remCap[l] <= capEps {
						stop = true
						break
					}
				}
			}
			if stop {
				frozenHere[fl] = true
				rates[fl] = level[fl]
				remaining--
				for _, l := range fl.Route {
					nActive[l]--
				}
			}
		}
	}
	return rates
}

// sortFlowsByID sorts flows by ascending ID.
func sortFlowsByID(fs []*flow) {
	slices.SortFunc(fs, func(a, b *flow) int { return a.ID - b.ID })
}
