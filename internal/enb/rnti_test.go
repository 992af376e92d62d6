package enb

import (
	"testing"

	"flexran/internal/lte"
	"flexran/internal/radio"
)

// mustSlot resolves a live RNTI to its slot.
func mustSlot(t *testing.T, e *ENB, rnti lte.RNTI) int32 {
	t.Helper()
	s, ok := e.slotFor(rnti)
	if !ok {
		t.Fatalf("RNTI %#x is not live", rnti)
	}
	return s
}

// TestRNTIWrapSkipsLive churns one eNodeB through the whole RNTI space
// while the first UE stays attached. Allocation must wrap from 0xFFFF back
// to FirstUERNTI, never issue a reserved RNTI below it, and skip the RNTI
// the first UE still holds.
func TestRNTIWrapSkipsLive(t *testing.T) {
	e := newENB(t)
	first, err := e.AddUE(UEParams{IMSI: 1, Cell: 0})
	if err != nil {
		t.Fatal(err)
	}
	if first != lte.FirstUERNTI {
		t.Fatalf("first RNTI = %#x, want %#x", first, lte.FirstUERNTI)
	}
	for i := 0; i < maxUEs-1; i++ {
		rnti, err := e.AddUE(UEParams{IMSI: uint64(2 + i), Cell: 0})
		if err != nil {
			t.Fatal(err)
		}
		if rnti < lte.FirstUERNTI || rnti == first {
			t.Fatalf("AddUE %d issued RNTI %#x", i+2, rnti)
		}
		e.RemoveUE(rnti)
	}
	// The counter has wrapped: the next candidate is the live first UE.
	rnti, err := e.AddUE(UEParams{IMSI: 1 << 20, Cell: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rnti != lte.FirstUERNTI+1 {
		t.Fatalf("after the wrap AddUE issued %#x, want %#x", rnti, lte.FirstUERNTI+1)
	}
	if r, ok := e.UEReport(first); !ok || r.IMSI != 1 {
		t.Fatalf("UEReport(%#x) = IMSI %d (ok %v), want the first UE's IMSI 1", first, r.IMSI, ok)
	}
	if r, ok := e.UEReport(rnti); !ok || r.IMSI != 1<<20 {
		t.Fatalf("UEReport(%#x) = IMSI %d (ok %v), want %d", rnti, r.IMSI, ok, 1<<20)
	}
	if got := e.UEs(); len(got) != 2 || got[0] != first || got[1] != rnti {
		t.Fatalf("UEs() = %#x, want [%#x %#x]", got, first, rnti)
	}
}

// TestRNTIExhaustion fills every RNTI: AddUE and AdmitUE then fail, and
// the first RNTI freed is the next one issued.
func TestRNTIExhaustion(t *testing.T) {
	e := newENB(t)
	ch := radio.Fixed(9)
	for i := 0; i < maxUEs; i++ {
		if _, err := e.AddUE(UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: ch}); err != nil {
			t.Fatalf("AddUE %d of %d: %v", i+1, maxUEs, err)
		}
	}
	const want = "enb: all 65466 RNTIs are in use"
	if _, err := e.AddUE(UEParams{IMSI: 1 << 20, Cell: 0}); err == nil || err.Error() != want {
		t.Fatalf("AddUE on a full eNodeB: err = %v, want %q", err, want)
	}
	if _, err := e.AdmitUE(HandoverState{Params: UEParams{IMSI: 1 << 20, Cell: 0}}); err == nil || err.Error() != want {
		t.Fatalf("AdmitUE on a full eNodeB: err = %v, want %q", err, want)
	}
	const freed = lte.RNTI(0x1000)
	e.RemoveUE(freed)
	rnti, err := e.AdmitUE(HandoverState{Params: UEParams{IMSI: 1 << 20, Cell: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rnti != freed {
		t.Fatalf("AdmitUE after freeing %#x issued %#x", freed, rnti)
	}
	if r, _ := e.UEReport(freed); r.IMSI != 1<<20 {
		t.Fatalf("UEReport(%#x) = IMSI %d, want %d", freed, r.IMSI, 1<<20)
	}
}
