package sim

import (
	"slices"
	"testing"

	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/ue"
)

// TestHandoverLeavesCallerSpecsAlone hands a UE over and checks that the
// caller's ENBSpec.UEs slice is untouched, that the node's parallel UE
// lists moved together, and that downlink traffic follows the UE through
// its bearer handle.
func TestHandoverLeavesCallerSpecsAlone(t *testing.T) {
	ues := []UESpec{
		{IMSI: 1, Channel: radio.Fixed(12), DL: ue.NewCBR(1000)},
		{IMSI: 2, Channel: radio.Fixed(12), DL: ue.NewCBR(1000)},
		{IMSI: 3, Channel: radio.Fixed(12), DL: ue.NewCBR(1000)},
	}
	s := MustNew(Config{Workers: 1},
		ENBSpec{ID: 1, Seed: 1, UEs: ues},
		ENBSpec{ID: 2, Seed: 2},
	)
	if !s.WaitAttached(500) {
		t.Fatal("attach failed")
	}
	src, tgt := s.Nodes[0], s.Nodes[1]
	s.executeHandover(src, protocol.HandoverCommand{
		RNTI: src.RNTIs[0], IMSI: 1, TargetENB: 2, TargetCell: 0,
	})
	if len(s.Handovers()) != 1 {
		t.Fatalf("handovers = %+v, want one", s.Handovers())
	}

	var imsis []uint64
	for _, u := range ues {
		imsis = append(imsis, u.IMSI)
	}
	if !slices.Equal(imsis, []uint64{1, 2, 3}) {
		t.Fatalf("caller's UE list became IMSIs %v, want [1 2 3]", imsis)
	}

	for _, n := range []*Node{src, tgt} {
		if len(n.RNTIs) != len(n.specs) || len(n.bearers) != len(n.specs) {
			t.Fatalf("eNB %d: %d RNTIs, %d specs, %d bearers", n.ENB.ID(), len(n.RNTIs), len(n.specs), len(n.bearers))
		}
		for i, spec := range n.specs {
			if b := n.bearers[i]; b.IMSI != spec.IMSI || b.ENB != n.ENB.ID() || b.RNTI != n.RNTIs[i] {
				t.Fatalf("eNB %d UE %d: bearer %+v does not match IMSI %d RNTI %d",
					n.ENB.ID(), i, *b, spec.IMSI, n.RNTIs[i])
			}
		}
	}
	if len(src.specs) != 2 || len(tgt.specs) != 1 || tgt.specs[0].IMSI != 1 {
		t.Fatalf("source IMSIs %v, target IMSIs %v", src.specs, tgt.specs)
	}

	b, _ := s.EPC.Bearer(1)
	before := b.DLAccepted
	s.Run(100)
	if b.DLAccepted <= before {
		t.Fatalf("no downlink accepted for the handed-over UE (%d then %d)", before, b.DLAccepted)
	}
	if r, id, ok := s.ReportByIMSI(1); !ok || id != 2 || r.DLDelivered == 0 {
		t.Fatalf("ReportByIMSI(1) = eNB %d, ok %v, %+v", id, ok, r)
	}
}
