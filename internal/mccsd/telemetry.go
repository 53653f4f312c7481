package mccsd

import (
	"sort"

	"mccs/internal/netsim"
	"mccs/internal/sim"
	"mccs/internal/telemetry"
)

// fabricCollector is the pull side of the telemetry plane: a registry
// collector that, at every sampler snapshot, publishes per-link gauges
// and per-(tenant, link) achieved rates from the fabric's settled
// allocation, and feeds the SLO tracker. It reuses its scratch across
// ticks so steady-state collection performs no per-flow allocation.
type fabricCollector struct {
	d   *Deployment
	reg *telemetry.Registry

	linkName []string
	linkBps  []*telemetry.Gauge
	linkUtil []*telemetry.Gauge
	linkExt  []*telemetry.Gauge
	active   *telemetry.Gauge

	// tenantBps holds the lazily created mccs_tenant_link_bps gauges.
	// live lists the ones set on the previous tick; they are zeroed at
	// the start of the next so a tenant that went idle on a link reads
	// 0, not its last busy value. Every other gauge already reads 0, so
	// a tick costs per live (tenant, link) pair, not per pair ever seen.
	tenantBps map[tenantLink]*telemetry.Gauge
	live      []*telemetry.Gauge

	// Per-link accumulation scratch, reused across ticks.
	shares  [][]telemetry.TenantShare
	touched []int
}

type tenantLink struct {
	tenant string
	link   int32
}

// instrumentTelemetry registers the fabric link inventory and the
// collector with the attached registry. Called once from NewDeployment.
func (d *Deployment) instrumentTelemetry(reg *telemetry.Registry) {
	nLinks := d.Cluster.Net.NumLinks()
	links := make([]telemetry.LinkInfo, nLinks)
	c := &fabricCollector{
		d: d, reg: reg,
		linkName:  make([]string, nLinks),
		linkBps:   make([]*telemetry.Gauge, nLinks),
		linkUtil:  make([]*telemetry.Gauge, nLinks),
		linkExt:   make([]*telemetry.Gauge, nLinks),
		tenantBps: make(map[tenantLink]*telemetry.Gauge),
		shares:    make([][]telemetry.TenantShare, nLinks),
	}
	for l := 0; l < nLinks; l++ {
		lk := d.Cluster.Net.Link(netsim.LinkID(l))
		links[l] = telemetry.LinkInfo{ID: int32(l), Name: lk.Name, CapBps: lk.Capacity}
		c.linkName[l] = lk.Name
		lb := telemetry.L("link", lk.Name)
		c.linkBps[l] = reg.Gauge("mccs_fabric_link_bps", "bytes/s", lb)
		c.linkUtil[l] = reg.Gauge("mccs_fabric_link_utilization", "ratio", lb)
		c.linkExt[l] = reg.Gauge("mccs_fabric_link_external_bps", "bytes/s", lb)
	}
	c.active = reg.Gauge("mccs_fabric_active_flows", "flows")
	reg.SetLinks(links)
	reg.AddCollector(c.collect)
}

func (c *fabricCollector) tenantGauge(tenant string, link int) *telemetry.Gauge {
	k := tenantLink{tenant: tenant, link: int32(link)}
	g, ok := c.tenantBps[k]
	if !ok {
		g = c.reg.Gauge("mccs_tenant_link_bps", "bytes/s",
			telemetry.L("tenant", tenant), telemetry.L("link", c.linkName[link]))
		c.tenantBps[k] = g
	}
	return g
}

func (c *fabricCollector) collect(now sim.Time) {
	fb := c.d.Fabric
	for _, l := range c.touched {
		c.shares[l] = c.shares[l][:0]
	}
	c.touched = c.touched[:0]
	for _, g := range c.live {
		g.Set(0)
	}
	c.live = c.live[:0]

	total := 0
	fb.EachFlow(func(fv netsim.FlowView) {
		total++
		if fv.External {
			return
		}
		tenant := c.reg.Tenant(fv.Comm)
		if tenant == "" {
			// Managed but unattributable (untagged P2P warm-up traffic);
			// it cannot be a named tenant's SLO victim.
			return
		}
		for _, l := range fv.Route {
			sh := c.shares[l]
			if len(sh) == 0 {
				c.touched = append(c.touched, int(l))
			}
			found := false
			for i := range sh {
				if sh[i].Tenant == tenant {
					sh[i].Bps += fv.Rate
					if fv.Bottleneck == l {
						sh[i].Bottlenecked = true
					}
					found = true
					break
				}
			}
			if !found {
				sh = append(sh, telemetry.TenantShare{
					Tenant: tenant, Bps: fv.Rate, Bottlenecked: fv.Bottleneck == l,
				})
			}
			c.shares[l] = sh
		}
	})
	c.active.Set(float64(total))

	net := c.d.Cluster.Net
	for l := 0; l < len(c.linkBps); l++ {
		id := netsim.LinkID(l)
		rate := fb.LinkRate(id)
		c.linkBps[l].Set(rate)
		c.linkExt[l].Set(fb.ExternalRate(id))
		util := 0.0
		if capBps := net.Link(id).Capacity; capBps > 0 {
			util = rate / capBps
		}
		c.linkUtil[l].Set(util)
	}

	// Ascending link order keeps the violation stream (and the first
	// creation order of tenant-link gauges) tidy and deterministic.
	sort.Ints(c.touched)
	for _, l := range c.touched {
		for i := range c.shares[l] {
			sh := c.shares[l][i]
			g := c.tenantGauge(sh.Tenant, l)
			g.Set(sh.Bps)
			c.live = append(c.live, g)
		}
		id := netsim.LinkID(l)
		c.reg.SLO.ObserveLink(now, int32(l), c.linkName[l],
			net.Link(id).Capacity, fb.LinkRate(id), c.shares[l])
	}
}
