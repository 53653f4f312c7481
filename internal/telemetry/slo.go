package telemetry

import (
	"mccs/internal/sim"
)

// SLO accounting: per sampling window, compare each tenant's achieved
// share of a fabric link against its fairness entitlement and record a
// violation when it falls short.
//
// Entitlement model: on a link carrying flows from n managed tenants,
// each tenant is entitled to capacity/n — the FFA fair share (PFA
// tenants with reserved routes are entitled to the same floor; the
// reservation is about *which* link they use, not a larger share of it).
// External (unmanaged, strict-priority) traffic is deliberately NOT
// discounted from the entitlement: bandwidth it steals from a managed
// tenant is precisely the deficit the provider wants surfaced, which is
// the Fig. 7 degradation story.
//
// A tenant is only eligible for a violation on a link when the fabric's
// committed water-fill says at least one of its flows is *bottlenecked*
// there — a tenant that is demand-limited (small messages, NIC-bound
// elsewhere) is not a victim of that link, however little it pushes
// through it. The link must also be saturated (utilization >= the
// configured floor): on an idle link a low share is lack of demand, not
// contention.
//
// Each (tenant, link, window) triple is reported at most once, at the
// first instant within the window where the condition holds.

// SLOConfig tunes the violation predicate.
type SLOConfig struct {
	// Tolerance is the fraction below entitlement tolerated before a
	// violation fires (default 0.05 = achieved < 95% of entitlement).
	Tolerance float64
	// SaturationMin is the link-utilization floor for eligibility
	// (default 0.9).
	SaturationMin float64
}

// TenantShare is one tenant's observed state on one link at one instant.
type TenantShare struct {
	Tenant       string
	Bps          float64
	Bottlenecked bool // some flow of this tenant is frozen at this link
}

// Violation is one recorded SLO breach.
type Violation struct {
	T           sim.Time     // first detection instant within the window
	Window      sim.Duration // sampling window the breach belongs to
	Tenant      string
	Link        int32
	LinkName    string
	AchievedBps float64
	EntitledBps float64
	DeficitBps  float64
}

type violKey struct {
	tenant string
	link   int32
}

// maxViolations bounds the in-memory violation log; overflow is counted.
const maxViolations = 1 << 12

// SLOTracker accumulates violations. It is fed by the fabric collector
// at every sampler snapshot and is inert (window == 0) until a sampler
// starts.
type SLOTracker struct {
	Config SLOConfig

	reg    *Registry
	window sim.Duration
	// seen holds the (tenant, link) pairs already reported in window
	// seenWindow. ObserveLink's clock is monotone, so a pair from an
	// earlier window can never match again: the set is cleared when the
	// window index advances and holds at most one window's worth.
	seen       map[violKey]struct{}
	seenWindow int64
	violations []Violation
	dropped    int
	counters   map[string]*Counter
}

func newSLOTracker() *SLOTracker {
	return &SLOTracker{
		Config:   SLOConfig{Tolerance: 0.05, SaturationMin: 0.9},
		seen:     make(map[violKey]struct{}),
		counters: make(map[string]*Counter),
	}
}

// ObserveLink evaluates the violation predicate for one link. shares
// must list every managed tenant with at least one flow crossing the
// link, in deterministic (first-seen in flow-ID) order. No-op until a
// sampler has set the window.
func (t *SLOTracker) ObserveLink(now sim.Time, link int32, name string, capBps, totalBps float64, shares []TenantShare) {
	if t == nil || t.window <= 0 || capBps <= 0 || len(shares) == 0 {
		return
	}
	if totalBps/capBps < t.Config.SaturationMin {
		return
	}
	entitled := capBps / float64(len(shares))
	floor := entitled * (1 - t.Config.Tolerance)
	if w := int64(now) / int64(t.window); w != t.seenWindow {
		clear(t.seen)
		t.seenWindow = w
	}
	for _, sh := range shares {
		if !sh.Bottlenecked || sh.Bps >= floor {
			continue
		}
		k := violKey{tenant: sh.Tenant, link: link}
		if _, ok := t.seen[k]; ok {
			continue
		}
		t.seen[k] = struct{}{}
		c, ok := t.counters[sh.Tenant]
		if !ok {
			c = t.reg.Counter("mccs_slo_violations_total", "violations", L("tenant", sh.Tenant))
			t.counters[sh.Tenant] = c
		}
		c.Inc()
		if len(t.violations) >= maxViolations {
			t.dropped++
			continue
		}
		t.violations = append(t.violations, Violation{
			T: now, Window: t.window,
			Tenant: sh.Tenant, Link: link, LinkName: name,
			AchievedBps: sh.Bps, EntitledBps: entitled, DeficitBps: entitled - sh.Bps,
		})
	}
}

// Violations returns the recorded breaches in detection order.
func (t *SLOTracker) Violations() []Violation {
	if t == nil {
		return nil
	}
	return t.violations
}

// Dropped returns how many violations were discarded to the cap.
func (t *SLOTracker) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}
