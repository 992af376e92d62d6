package main

// dense-control: a generated grid where the control plane dominates. Every
// UE is reported to the master every TTI (stats_period_tti: 1), heartbeats
// run, static UEs see fading channels, and walkers cross cell borders under
// the load-balanced mobility app, so measurement reports and handovers
// flow. No node is ever idle, which keeps the fast-forward engine out of
// the picture.

import (
	"fmt"
	"math/rand"
	"strings"

	"flexran/internal/scenario"
)

// Shape of the dense-control world.
const (
	denseENBs      = 16
	denseCols      = 4
	denseSpacing   = 500.0 // meters between neighbouring sites
	denseStatic    = 22    // static fading UEs per eNodeB
	denseWalkers   = 3     // walkers per eNodeB
	denseTTIs      = 4000  // measured TTIs after attach
	denseAttachTTI = 400   // attach budget
)

// denseDoc generates the dense-control scenario document for a seed. It is
// a pure function of the seed.
func denseDoc(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	// Per-eNodeB channel means and rates are a seeded shuffle of fixed
	// values, so every seed offers the same total load in another layout.
	cqis := rng.Perm(denseENBs)
	rates := rng.Perm(denseENBs)
	var b strings.Builder
	fmt.Fprintf(&b, "name: dense-control\nrun:\n  ttis: %d\n  attach_ttis: %d\n  seed: %d\n", denseTTIs, denseAttachTTI, seed)
	b.WriteString("master:\n  stats_period_tti: 1\n  sync_period_tti: 1\n  echo_period_tti: 20\n")
	fmt.Fprintf(&b, "topology:\n  grid:\n    enbs: %d\n    cols: %d\n    spacing_m: %g\n    power_dbm: 43\n    seed_base: %d\n",
		denseENBs, denseCols, denseSpacing, 1+rng.Intn(1000))
	b.WriteString("ues:\n")
	imsi := 100000
	for e := 0; e < denseENBs; e++ {
		id := e + 1
		rate := 100 + 25*rates[e]
		fmt.Fprintf(&b, "  - count: %d\n    enb: %d\n    imsi_base: %d\n", denseStatic, id, imsi)
		fmt.Fprintf(&b, "    channel:\n      model: fading\n      mean: %d\n      rho: 0.99\n      sigma: 1.5\n      seed: %d\n",
			7+cqis[e]%7, rng.Intn(1<<20))
		fmt.Fprintf(&b, "    traffic:\n      - kind: cbr\n        share: 0.5\n        rate_kbps: %d\n", rate)
		fmt.Fprintf(&b, "      - kind: poisson\n        share: 0.5\n        mean_kbps: %d\n        packet_bytes: 600\n        seed: %d\n",
			rate, rng.Intn(1<<20))
		imsi += denseStatic
	}
	// Walkers start near their own site (well inside its cell, so they
	// attach there) and then visit random points anywhere on the grid, so
	// they cross cell borders and trigger A3 reports and handovers.
	width := float64(denseCols-1) * denseSpacing
	height := float64((denseENBs+denseCols-1)/denseCols-1) * denseSpacing
	for e := 0; e < denseENBs; e++ {
		sx, sy := float64(e%denseCols)*denseSpacing, float64(e/denseCols)*denseSpacing
		for k := 0; k < denseWalkers; k++ {
			fmt.Fprintf(&b, "  - count: 1\n    enb: %d\n    imsi_base: %d\n", e+1, imsi)
			fmt.Fprintf(&b, "    mobility:\n      model: waypoint\n      path: [[%.0f, %.0f]",
				sx+(rng.Float64()-0.5)*0.4*denseSpacing, sy+(rng.Float64()-0.5)*0.4*denseSpacing)
			for p := 0; p < 4; p++ {
				fmt.Fprintf(&b, ", [%.0f, %.0f]", rng.Float64()*width, rng.Float64()*height)
			}
			fmt.Fprintf(&b, "]\n      speed_mps: %d\n      ping_pong: true\n", 60+20*k)
			fmt.Fprintf(&b, "    traffic:\n      - kind: cbr\n        rate_kbps: %d\n", 200+100*k)
			imsi++
		}
	}
	b.WriteString("apps:\n  - kind: mobility\n    policy: load_balanced\n    load_weight: 1.0\n")
	return b.String()
}

var denseControl = simWorkload{
	name:    "dense-control",
	load:    func(seed int64) (*scenario.Scenario, error) { return scenario.Parse(denseDoc(seed)) },
	queries: 16000,
	setups:  15,
}
