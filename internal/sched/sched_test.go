package sched

import (
	"testing"
	"testing/quick"

	"flexran/internal/lte"
)

func mkInput(sf lte.Subframe, prbs int, ues ...UEInfo) Input {
	return Input{SF: sf, Dir: lte.Downlink, TotalPRB: prbs, UEs: ues}
}

// checkInvariants asserts the allocation contract every scheduler must
// honor: disjoint contiguous ranges within [0, TotalPRB), no duplicate
// RNTIs, valid MCS.
func checkInvariants(t *testing.T, in Input, allocs []Alloc) {
	t.Helper()
	used := 0
	seen := map[lte.RNTI]bool{}
	for _, a := range allocs {
		if a.RBCount <= 0 {
			t.Fatalf("empty allocation %+v", a)
		}
		if a.RBStart != used {
			t.Fatalf("non-contiguous allocation %+v (expected start %d)", a, used)
		}
		used += a.RBCount
		if used > in.TotalPRB {
			t.Fatalf("over-allocated: %d > %d", used, in.TotalPRB)
		}
		if seen[a.RNTI] {
			t.Fatalf("RNTI %d allocated twice", a.RNTI)
		}
		seen[a.RNTI] = true
		if a.MCS > lte.MaxMCS {
			t.Fatalf("invalid MCS %d", a.MCS)
		}
	}
}

func TestFillByOrderSizesByNeed(t *testing.T) {
	// UE 1 needs 2 PRBs worth of data, UE 2 is full buffer.
	per := lte.TBSBytes(lte.Downlink, 10, 1)
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 2 * per},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
	)
	allocs := FillByOrder(nil, in, []int{0, 1})
	checkInvariants(t, in, allocs)
	if len(allocs) != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
	if allocs[0].RBCount != 2 {
		t.Errorf("UE1 got %d PRBs, want 2", allocs[0].RBCount)
	}
	if allocs[1].RBCount != 48 {
		t.Errorf("UE2 got %d PRBs, want 48", allocs[1].RBCount)
	}
}

func TestFillByOrderSkipsUnservable(t *testing.T) {
	in := mkInput(0, 10,
		UEInfo{RNTI: 1, CQI: 0, QueueBytes: 1000},  // out of range
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 0},    // empty queue
		UEInfo{RNTI: 3, CQI: 5, QueueBytes: 99999}, // servable
	)
	allocs := FillByOrder(nil, in, []int{0, 1, 2})
	if len(allocs) != 1 || allocs[0].RNTI != 3 {
		t.Fatalf("allocs = %+v", allocs)
	}
	checkInvariants(t, in, allocs)
}

func TestRoundRobinEqualShares(t *testing.T) {
	rr := NewRoundRobin()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 3, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 4, CQI: 10, QueueBytes: 1 << 20},
		UEInfo{RNTI: 5, CQI: 10, QueueBytes: 1 << 20},
	)
	allocs := rr.Schedule(in)
	checkInvariants(t, in, allocs)
	if len(allocs) != 5 {
		t.Fatalf("want 5 allocations, got %d", len(allocs))
	}
	for _, a := range allocs {
		if a.RBCount != 10 {
			t.Errorf("RNTI %d got %d PRBs, want 10", a.RNTI, a.RBCount)
		}
	}
}

func TestRoundRobinRotatesRemainder(t *testing.T) {
	rr := NewRoundRobin()
	full := func() Input {
		return mkInput(0, 10,
			UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20},
			UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
			UEInfo{RNTI: 3, CQI: 10, QueueBytes: 1 << 20},
		)
	}
	total := map[lte.RNTI]int{}
	for i := 0; i < 300; i++ {
		for _, a := range rr.Schedule(full()) {
			total[a.RNTI] += a.RBCount
		}
	}
	// 10 PRB / 3 UEs over 300 TTIs: every UE should get 1000 +- rotation.
	for rnti, prbs := range total {
		if prbs < 990 || prbs > 1010 {
			t.Errorf("RNTI %d total = %d, want ~1000", rnti, prbs)
		}
	}
}

func TestRoundRobinSpareReassignment(t *testing.T) {
	// One tiny queue, one full buffer: the spare PRBs of UE1 must flow to
	// UE2 in the same TTI (work conservation).
	per := lte.TBSBytes(lte.Downlink, 10, 1)
	rr := NewRoundRobin()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: per},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
	)
	allocs := rr.Schedule(in)
	checkInvariants(t, in, allocs)
	got := map[lte.RNTI]int{}
	for _, a := range allocs {
		got[a.RNTI] = a.RBCount
	}
	if got[1] != 1 {
		t.Errorf("UE1 = %d PRBs, want 1", got[1])
	}
	if got[2] != 49 {
		t.Errorf("UE2 = %d PRBs, want 49 (work conservation)", got[2])
	}
}

func TestRoundRobinSkipsZeroCapacityUplink(t *testing.T) {
	// An uplink CQI-1 UE carries 0 bytes per PRB: it must be left out of
	// the share split rather than crash the quota arithmetic.
	if got := lte.TBSBytes(lte.Uplink, 1, 1); got != 0 {
		t.Fatalf("premise: uplink CQI 1 carries %d bytes per PRB, want 0", got)
	}
	rr := NewRoundRobin()
	in := mkInput(0, 10,
		UEInfo{RNTI: 1, CQI: 1, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20},
	)
	in.Dir = lte.Uplink
	allocs := rr.Schedule(in)
	checkInvariants(t, in, allocs)
	if len(allocs) != 1 || allocs[0].RNTI != 2 || allocs[0].RBCount != 10 {
		t.Fatalf("allocs = %+v, want all 10 PRBs for RNTI 2", allocs)
	}
}

func TestProportionalFairPrefersUnderserved(t *testing.T) {
	pf := NewProportionalFair()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, AvgRateKbps: 20000},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20, AvgRateKbps: 100},
	)
	allocs := pf.Schedule(in)
	checkInvariants(t, in, allocs)
	if len(allocs) == 0 || allocs[0].RNTI != 2 {
		t.Fatalf("PF should serve the starved UE first: %+v", allocs)
	}
}

func TestProportionalFairPrefersGoodChannelAtEqualAvg(t *testing.T) {
	pf := NewProportionalFair()
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 4, QueueBytes: 1 << 20, AvgRateKbps: 1000},
		UEInfo{RNTI: 2, CQI: 14, QueueBytes: 1 << 20, AvgRateKbps: 1000},
	)
	allocs := pf.Schedule(in)
	if len(allocs) == 0 || allocs[0].RNTI != 2 {
		t.Fatalf("PF should exploit the better channel: %+v", allocs)
	}
}

func TestMaxCQIOrdering(t *testing.T) {
	m := NewMaxCQI()
	in := mkInput(0, 4,
		UEInfo{RNTI: 1, CQI: 3, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 15, QueueBytes: 1 << 20},
		UEInfo{RNTI: 3, CQI: 9, QueueBytes: 1 << 20},
	)
	allocs := m.Schedule(in)
	checkInvariants(t, in, allocs)
	// Budget exhausted by the best UE.
	if len(allocs) != 1 || allocs[0].RNTI != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
}

func TestMetricSchedulerNegativeExcludes(t *testing.T) {
	m := NewMetric("test", func(in Input, ue UEInfo) float64 {
		if ue.RNTI == 1 {
			return -1 // excluded
		}
		return float64(ue.CQI)
	})
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 15, QueueBytes: 1 << 20},
		UEInfo{RNTI: 2, CQI: 5, QueueBytes: 1 << 20},
	)
	allocs := m.Schedule(in)
	if len(allocs) != 1 || allocs[0].RNTI != 2 {
		t.Fatalf("allocs = %+v", allocs)
	}
}

func TestSlicerQuotaEnforcement(t *testing.T) {
	// 70/30 split, both groups saturated: allocations must match quota.
	s := NewSlicer("slice", []float64{0.7, 0.3}, false, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 0},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20, Group: 0},
		UEInfo{RNTI: 3, CQI: 10, QueueBytes: 1 << 20, Group: 1},
	)
	allocs := s.Schedule(in)
	checkInvariants(t, in, allocs)
	byGroup := map[int]int{}
	group := map[lte.RNTI]int{1: 0, 2: 0, 3: 1}
	for _, a := range allocs {
		byGroup[group[a.RNTI]] += a.RBCount
	}
	if byGroup[0] != 35 {
		t.Errorf("group 0 = %d PRBs, want 35", byGroup[0])
	}
	if byGroup[1] != 15 {
		t.Errorf("group 1 = %d PRBs, want 15", byGroup[1])
	}
}

func TestSlicerNonWorkConservingWastesUnused(t *testing.T) {
	// Group 1 idle: its quota must NOT flow to group 0.
	s := NewSlicer("slice", []float64{0.5, 0.5}, false, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 0},
	)
	allocs := s.Schedule(in)
	total := 0
	for _, a := range allocs {
		total += a.RBCount
	}
	if total != 25 {
		t.Errorf("allocated %d PRBs, want 25 (strict quota)", total)
	}
}

func TestSlicerWorkConservingRedistributes(t *testing.T) {
	s := NewSlicer("slice", []float64{0.5, 0.5}, true, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 1},
	)
	allocs := s.Schedule(in)
	total := 0
	for _, a := range allocs {
		total += a.RBCount
	}
	if total != 50 {
		t.Errorf("allocated %d PRBs, want 50 (work conserving)", total)
	}
}

func TestSlicerSetShares(t *testing.T) {
	s := NewSlicer("slice", []float64{0.7, 0.3}, false, func() Scheduler { return NewRoundRobin() })
	in := mkInput(0, 50,
		UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20, Group: 0},
		UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1 << 20, Group: 1},
	)
	s.SetShares([]float64{0.4, 0.6})
	allocs := s.Schedule(in)
	got := map[lte.RNTI]int{}
	for _, a := range allocs {
		got[a.RNTI] += a.RBCount
	}
	if got[1] != 20 || got[2] != 30 {
		t.Errorf("shares after reconfig = %v, want 20/30", got)
	}
	if sh := s.Shares(); sh[0] != 0.4 || sh[1] != 0.6 {
		t.Errorf("Shares() = %v", sh)
	}
}

func TestValidateShares(t *testing.T) {
	if err := ValidateShares([]float64{0.7, 0.3}); err != nil {
		t.Errorf("valid shares rejected: %v", err)
	}
	if err := ValidateShares([]float64{0.8, 0.4}); err == nil {
		t.Error("sum > 1 accepted")
	}
	if err := ValidateShares([]float64{-0.1}); err == nil {
		t.Error("negative share accepted")
	}
	if err := ValidateShares([]float64{1.5}); err == nil {
		t.Error("share > 1 accepted")
	}
}

func TestRemoteStubAppliesExactSubframe(t *testing.T) {
	st := NewRemoteStub()
	decision := []Alloc{{RNTI: 1, RBCount: 10, MCS: 15}}
	if !st.Push(100, 95, decision) {
		t.Fatal("push for future subframe rejected")
	}
	in := mkInput(99, 50, UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1 << 20})
	if got := st.Schedule(in); got != nil {
		t.Fatalf("applied at wrong subframe: %+v", got)
	}
	in.SF = 100
	got := st.Schedule(in)
	if len(got) != 1 || got[0].RNTI != 1 || got[0].RBCount != 10 {
		t.Fatalf("decision not applied: %+v", got)
	}
	applied, missed := st.Stats()
	if applied != 1 || missed != 1 {
		t.Errorf("stats = %d applied, %d missed", applied, missed)
	}
}

func TestRemoteStubRejectsLateDecisions(t *testing.T) {
	st := NewRemoteStub()
	if st.Push(50, 60, []Alloc{{RNTI: 1, RBCount: 5}}) {
		t.Error("late push accepted")
	}
	_, missed := st.Stats()
	if missed != 1 {
		t.Errorf("missed = %d, want 1", missed)
	}
}

func TestRemoteStubClampsOversizedDecision(t *testing.T) {
	st := NewRemoteStub()
	st.Push(10, 0, []Alloc{
		{RNTI: 1, RBCount: 40, MCS: 10},
		{RNTI: 2, RBCount: 40, MCS: 10},
	})
	in := mkInput(10, 50, UEInfo{RNTI: 1, CQI: 10, QueueBytes: 1}, UEInfo{RNTI: 2, CQI: 10, QueueBytes: 1})
	allocs := st.Schedule(in)
	total := 0
	for _, a := range allocs {
		total += a.RBCount
	}
	if total != 50 {
		t.Errorf("clamped total = %d, want 50", total)
	}
}

func TestPropertySchedulersNeverOverAllocate(t *testing.T) {
	scheds := []func() Scheduler{
		func() Scheduler { return NewRoundRobin() },
		func() Scheduler { return NewProportionalFair() },
		func() Scheduler { return NewMaxCQI() },
		func() Scheduler {
			return NewSlicer("s", []float64{0.5, 0.5}, true, func() Scheduler { return NewRoundRobin() })
		},
	}
	f := func(seed uint32, nUE uint8, prbs uint8) bool {
		n := int(nUE%20) + 1
		total := int(prbs%100) + 1
		in := Input{SF: lte.Subframe(seed), Dir: lte.Downlink, TotalPRB: total}
		x := seed
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			in.UEs = append(in.UEs, UEInfo{
				RNTI:        lte.RNTI(i + 1),
				CQI:         lte.CQI(x % 16),
				QueueBytes:  int(x % 100000),
				AvgRateKbps: float64(x % 10000),
				Group:       int(x % 2),
			})
		}
		for _, mk := range scheds {
			used := 0
			starts := map[int]bool{}
			for _, a := range mk().Schedule(in) {
				if a.RBCount <= 0 || a.RBStart < 0 || a.RBStart+a.RBCount > total {
					return false
				}
				for rb := a.RBStart; rb < a.RBStart+a.RBCount; rb++ {
					if starts[rb] {
						return false // overlap
					}
					starts[rb] = true
				}
				used += a.RBCount
			}
			if used > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
