package experiments

import (
	"flexran/internal/agent"
	"flexran/internal/apps"
	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/radio"
	"flexran/internal/sched"
	"flexran/internal/sim"
	"flexran/internal/ue"
)

// Fig10Result is the eICIC use case of §6.1 (Figs. 10a/10b): network and
// per-cell downlink throughput of a macro cell (3 UEs) and a co-channel
// small cell (1 UE) under three coordination regimes — uncoordinated,
// plain eICIC with 4 almost-blank subframes per frame, and the
// FlexRAN-optimized eICIC where the centralized coordinator re-grants idle
// ABS capacity to the macro cell.
type Fig10Result struct {
	// Mb/s per case.
	Uncoordinated, EICIC, Optimized          float64 // network totals (10a)
	SmallEICIC, SmallOptimized               float64 // small cell (10b)
	MacroEICIC, MacroOptimized, MacroUncoord float64 // macro cell (10b)
	SmallUncoord                             float64
	GrantedABS                               int
}

// ID implements Result.
func (*Fig10Result) ID() string { return "fig10" }

func (r *Fig10Result) String() string {
	t := newTable("Fig 10: eICIC throughput (Mb/s)")
	t.row("case", "network", "macro", "small")
	t.row("uncoordinated", f2(r.Uncoordinated), f2(r.MacroUncoord), f2(r.SmallUncoord))
	t.row("eICIC", f2(r.EICIC), f2(r.MacroEICIC), f2(r.SmallEICIC))
	t.row("optimized", f2(r.Optimized), f2(r.MacroOptimized), f2(r.SmallOptimized))
	return t.String()
}

// eicicMode selects the coordination regime of one run.
type eicicMode int

const (
	modeUncoordinated eicicMode = iota
	modeEICIC
	modeOptimized
)

// runEICICCase builds the two-cell HetNet and measures per-cell goodput.
func runEICICCase(mode eicicMode, seconds float64) (macro, small float64, granted int) {
	const absCount = 4 // 4 ABS per 10-subframe frame, as in the paper

	// Interference is mutual and resolved through the cells' actual
	// per-subframe transmission activity. The small cell is stepped first
	// each TTI, so the macro's victim channel sees same-subframe small
	// activity; the small cell's victim channel sees the macro's previous
	// subframe (one TTI of CQI lag, as a real reporting loop would).
	// The closures are bound after the scenario is built.
	var macroActive, smallActive func(sf lte.Subframe) bool
	macroHit := func(sf lte.Subframe) bool { return macroActive != nil && macroActive(sf) }
	smallHit := func(sf lte.Subframe) bool { return smallActive != nil && smallActive(sf) }

	macroUEs := make([]sim.UESpec, 3)
	for i := range macroUEs {
		macroUEs[i] = sim.UESpec{
			IMSI:    uint64(100 + i),
			Channel: &radio.InterferenceSwitched{Clear: 12, Hit: 6, Interfered: smallHit},
			DL:      ue.NewCBR(6000), // demand above the 6/10-subframe capacity
		}
	}
	smallUEs := []sim.UESpec{{
		IMSI:    200,
		Channel: &radio.InterferenceSwitched{Clear: 12, Hit: 4, Interfered: macroHit},
		DL:      ue.NewCBR(2500),
	}}

	o := controller.DefaultOptions()
	// The interference closures read the other cell's activity during the
	// data-plane phase, so the stepping order above only holds on a
	// serial engine; a parallel one would race the two eNodeBs.
	s := sim.MustNew(sim.Config{Master: &o, Workers: 1},
		sim.ENBSpec{ID: 2, Agent: true, Seed: 2, UEs: smallUEs}, // stepped first
		sim.ENBSpec{ID: 1, Agent: true, Seed: 1, UEs: macroUEs},
	)
	smallENB, macroENB := s.Nodes[0].ENB, s.Nodes[1].ENB
	macroActive = func(sf lte.Subframe) bool { return sf > 0 && macroENB.Active(0, sf-1) }
	smallActive = func(sf lte.Subframe) bool { return smallENB.Active(0, sf) }

	abs := sched.ABSPattern(absCount)
	smallMAC := s.Nodes[0].Agent.MAC()
	macroMAC := s.Nodes[1].Agent.MAC()

	switch mode {
	case modeUncoordinated:
		// Both cells schedule independently in every subframe (default rr).
	case modeEICIC, modeOptimized:
		// Macro: local scheduler outside ABS; during ABS either strictly
		// muted (eICIC) or driven by the coordinator's grants (optimized).
		var during sched.Scheduler
		if mode == modeOptimized {
			during = macroMAC.RemoteStub(agent.OpDLUESched)
		}
		macroSwitch := sched.NewABSSwitch("eicic-macro", abs, sched.NewRoundRobin(), during)
		must(macroMAC.InstallLocal(agent.OpDLUESched, "eicic-macro", macroSwitch))
		must(macroMAC.Activate(agent.OpDLUESched, "eicic-macro"))
		// Small cell: schedule its victims only during ABS, batching the
		// trickle traffic into whole subframes (queue threshold or
		// head-of-line age) so unneeded ABS subframes go fully idle —
		// the capacity the optimized coordinator re-grants.
		batch := sched.NewMetric("batch-rr", func(in sched.Input, u sched.UEInfo) float64 {
			// Fixed threshold ≈ 2/3 of a clear-channel subframe so the
			// batch size does not collapse when the victim UE reports an
			// interference-degraded CQI.
			if u.QueueBytes >= 2000 || in.SF-u.LastSched > 12 {
				return float64(u.QueueBytes)
			}
			return -1
		})
		smallGate := sched.NewABSGate("eicic-small", abs, batch)
		must(smallMAC.InstallLocal(agent.OpDLUESched, "eicic-small", smallGate))
		must(smallMAC.Activate(agent.OpDLUESched, "eicic-small"))
	}

	coord := apps.NewEICIC(1, []lte.ENBID{2}, absCount, mode == modeOptimized)
	s.Master.Register(coord, 100)

	s.WaitAttached(3000)
	s0, m0 := s.DeliveredDL(0), s.DeliveredDL(1)
	s.RunSeconds(seconds)
	s1, m1 := s.DeliveredDL(0), s.DeliveredDL(1)
	macro = float64(m1-m0) * 8 / 1e6 / seconds
	small = float64(s1-s0) * 8 / 1e6 / seconds
	return macro, small, coord.Granted
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func runFig10(scale float64) Result {
	seconds := 4 * scale
	res := &Fig10Result{}
	res.MacroUncoord, res.SmallUncoord, _ = runEICICCase(modeUncoordinated, seconds)
	res.MacroEICIC, res.SmallEICIC, _ = runEICICCase(modeEICIC, seconds)
	var granted int
	res.MacroOptimized, res.SmallOptimized, granted = runEICICCase(modeOptimized, seconds)
	res.GrantedABS = granted
	res.Uncoordinated = res.MacroUncoord + res.SmallUncoord
	res.EICIC = res.MacroEICIC + res.SmallEICIC
	res.Optimized = res.MacroOptimized + res.SmallOptimized
	return res
}

func init() { register("fig10", runFig10) }
