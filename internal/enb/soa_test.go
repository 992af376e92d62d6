package enb

import (
	"testing"

	"flexran/internal/lte"
	"flexran/internal/radio"
)

// dirtySlot attaches a UE, drives traffic through it until every hot lane
// holds nonzero state, and returns its slot id.
func dirtySlot(t *testing.T, e *ENB) (lte.RNTI, int32) {
	t.Helper()
	rnti := addConnected(t, e, radio.Fixed(12))
	e.DLEnqueue(rnti, 50000)
	e.ULEnqueue(rnti, 50000)
	for i := 0; i < 20; i++ {
		e.Step()
	}
	s, _ := e.slotFor(rnti)
	r, _ := e.UEReport(rnti)
	if r.CQI == 0 || r.AvgDLKbps == 0 || r.AvgULKbps == 0 || r.DLDelivered == 0 || r.LastSched == 0 {
		t.Fatalf("failed to dirty the slot: %+v", r)
	}
	e.DLEnqueue(rnti, 40000)
	e.ULEnqueue(rnti, 40000)
	return rnti, s
}

// TestSlotReuseNoLeak is the regression test for the struct-of-arrays free
// list: attach→detach→attach must hand the recycled slot to the new UE
// with every lane zeroed — no stale CQI, queue bytes, PF averages, HARQ
// state or cumulative counters from the previous occupant.
func TestSlotReuseNoLeak(t *testing.T) {
	e := newENB(t)
	old, s := dirtySlot(t, e)
	if q := e.hot.dlQueue[s]; q == 0 {
		t.Fatal("expected pending DL bytes before detach")
	}
	lanes := len(e.hot.rnti)

	e.RemoveUE(old)
	if len(e.free) != 1 || e.free[0] != s {
		t.Fatalf("detach must free slot %d, free list %v", s, e.free)
	}

	rnti, err := e.AddUE(UEParams{IMSI: 777, Cell: 0, Channel: radio.Fixed(7)})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.slotFor(rnti); got != s {
		t.Fatalf("new UE got slot %d, want recycled slot %d", got, s)
	}
	if len(e.hot.rnti) != lanes || len(e.cold) != lanes {
		t.Fatalf("lanes grew from %d to %d despite a free slot", lanes, len(e.hot.rnti))
	}

	r, ok := e.UEReport(rnti)
	if !ok {
		t.Fatal("recycled UE not reported")
	}
	if r.State != StateAttaching || r.SigQueue != e.cfg.AttachSignalingBytes || r.AttachTries != 1 {
		t.Fatalf("fresh attach state corrupted: %+v", r)
	}
	if r.CQI != 0 || r.DLQueue != 0 || r.ULQueue != 0 ||
		r.AvgDLKbps != 0 || r.AvgULKbps != 0 || r.LastSched != 0 ||
		r.DLDelivered != 0 || r.ULDelivered != 0 || r.DLDropped != 0 || r.HARQRetx != 0 {
		t.Fatalf("recycled slot leaked previous occupant's state: %+v", r)
	}
	if e.hot.retxDL[s] != 0 || e.hot.retxUL[s] != 0 || e.hot.ttiDL[s] != 0 || e.hot.ttiUL[s] != 0 {
		t.Fatal("recycled slot leaked HARQ/per-TTI lanes")
	}
	if _, stale := e.UEReportByIMSI(uint64(1000 + 0)); stale {
		t.Fatal("detached UE still resolvable by IMSI")
	}

	// The recycled slot must behave like a brand-new UE end to end.
	for i := 0; i < 200 && !e.Connected(rnti); i++ {
		e.Step()
	}
	if !e.Connected(rnti) {
		t.Fatal("UE on recycled slot failed to attach")
	}
	if got, _ := e.UEReportByIMSI(777); got.RNTI != rnti {
		t.Fatalf("IMSI lookup resolved to %d, want %d", got.RNTI, rnti)
	}
}

// TestHandoverSlotReuse covers the ReleaseUE path: the slot freed by a
// handover release must come back clean for the next admission.
func TestHandoverSlotReuse(t *testing.T) {
	e := newENB(t)
	old, s := dirtySlot(t, e)
	st, ok := e.ReleaseUE(old)
	if !ok {
		t.Fatal("release failed")
	}
	if st.DLQueue == 0 {
		t.Fatal("expected forwarded DL bytes in the handover context")
	}
	rnti, err := e.AdmitUE(HandoverState{Params: UEParams{IMSI: 888, Cell: 0, Channel: radio.Fixed(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := e.slotFor(rnti); got != s {
		t.Fatalf("admission got slot %d, want recycled slot %d", got, s)
	}
	r, _ := e.UEReport(rnti)
	if r.State != StateConnected {
		t.Fatalf("admitted UE must be connected, got %v", r.State)
	}
	if r.DLQueue != 0 || r.ULQueue != 0 || r.AvgDLKbps != 0 || r.AvgULKbps != 0 ||
		r.DLDelivered != 0 || r.HARQRetx != 0 {
		t.Fatalf("admission inherited the released UE's state: %+v", r)
	}
}
