package controller

import (
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// helloRIB builds a RIB with agents 1 and 2, one cell each.
func helloRIB() *RIB {
	r := NewRIB()
	for _, id := range []lte.ENBID{1, 2} {
		r.applyHello(id, protocol.ENBConfig{
			ID: id, Cells: []protocol.CellConfig{{Cell: 0}},
		})
	}
	r.publishTopology()
	return r
}

func TestRIBMeasReport(t *testing.T) {
	r := helloRIB()
	rep := &protocol.MeasReport{
		RNTI: 0x46, IMSI: 9, Cell: 0,
		ServingRSRPdBm: -101,
		Neighbors:      []protocol.NeighborMeas{{ENB: 2, RSRPdBm: -95}},
	}
	r.applyMeasReport(1, 500, rep)

	got, sf, ok := r.UEMeas(1, 0x46)
	if !ok || sf != 500 {
		t.Fatalf("UEMeas ok=%v sf=%v, want true/500", ok, sf)
	}
	if got.ServingRSRPdBm != -101 || len(got.Neighbors) != 1 {
		t.Errorf("stored report = %+v", got)
	}
	// The report outran the stats stream: a record was materialized.
	if n := r.UECount(1); n != 1 {
		t.Errorf("UECount(1) = %d, want 1", n)
	}
	if _, _, ok := r.UEMeas(1, 0x99); ok {
		t.Error("UEMeas for unknown RNTI succeeded")
	}
	if _, _, ok := r.UEMeas(9, 0x46); ok {
		t.Error("UEMeas for unknown agent succeeded")
	}
}

// HandoverComplete materializes the record under the target shard; the
// source shard is cleaned by the source agent's own detach event, in
// whichever order the two arrive.
func TestRIBHandoverMigration(t *testing.T) {
	r := helloRIB()
	// The UE starts under agent 1.
	r.applyUEEvent(1, &protocol.UEEvent{Type: protocol.UEEventAttach, RNTI: 0x46, Cell: 0})
	if r.UECount(1) != 1 {
		t.Fatal("setup failed")
	}

	hc := &protocol.HandoverComplete{
		RNTI: 0x52, IMSI: 9, Cell: 0, SourceENB: 1, SourceRNTI: 0x46,
	}
	r.applyHandoverComplete(2, hc)
	if n := r.UECount(2); n != 1 {
		t.Errorf("target shard UEs = %d, want 1", n)
	}
	// Source cleanup arrives as the agent's detach.
	r.applyUEEvent(1, &protocol.UEEvent{Type: protocol.UEEventDetach, RNTI: 0x46, Cell: 0})
	if n := r.UECount(1); n != 0 {
		t.Errorf("source shard UEs = %d, want 0", n)
	}

	// Replays are idempotent (the completion may race the target's own
	// attach event in either order).
	r.applyHandoverComplete(2, hc)
	r.applyUEEvent(2, &protocol.UEEvent{Type: protocol.UEEventAttach, RNTI: 0x52, Cell: 0})
	if n := r.UECount(2); n != 1 {
		t.Errorf("idempotence violated: target shard UEs = %d, want 1", n)
	}
	// The migrated record carries the subscriber identity.
	sh := r.shard(2)
	sh.mu.RLock()
	u := sh.cells[0].UEs[0x52]
	sh.mu.RUnlock()
	if u == nil || u.Config.IMSI != 9 {
		t.Errorf("migrated record = %+v, want IMSI 9", u)
	}
}

func TestRIBHandoverCompleteUnknownTarget(t *testing.T) {
	r := helloRIB()
	// Unknown target shard / unknown cell: both no-ops, no panic.
	r.applyHandoverComplete(7, &protocol.HandoverComplete{RNTI: 1, Cell: 0})
	r.applyHandoverComplete(2, &protocol.HandoverComplete{RNTI: 1, Cell: 5})
	if r.UECount(2) != 0 {
		t.Error("record appeared under an unknown cell")
	}
}
