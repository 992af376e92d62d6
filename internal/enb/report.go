package enb

import (
	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// This file is the read-side of the data plane: the statistics snapshots
// the FlexRAN agent turns into protocol reports, and the per-UE/per-cell
// accessors the experiments sample.

// UEReport is a point-in-time snapshot of one UE's data-plane state.
type UEReport struct {
	RNTI        lte.RNTI
	IMSI        uint64
	Cell        lte.CellID
	State       UEState
	CQI         lte.CQI
	DLQueue     int
	ULQueue     int
	SigQueue    int // pending attach signaling (SRB) bytes
	DLDelivered uint64
	ULDelivered uint64
	DLDropped   uint64
	AvgDLKbps   float64
	AvgULKbps   float64
	HARQRetx    uint32
	LastSched   lte.Subframe
	Group       int
	AttachTries int
}

// UEReport returns the snapshot for one UE, with ok=false when unknown.
func (e *ENB) UEReport(rnti lte.RNTI) (UEReport, bool) {
	s, ok := e.slotFor(rnti)
	if !ok {
		return UEReport{}, false
	}
	return e.report(s), true
}

// UEReportByIMSI returns the snapshot for the UE holding imsi, with
// ok=false when no such UE is attached here. The compact IMSI→slot map
// makes this O(1) — the lookup path experiments and the EPC-side
// accounting sweep use per subscriber.
func (e *ENB) UEReportByIMSI(imsi uint64) (UEReport, bool) {
	s, ok := e.slotByIMSI[imsi]
	if !ok {
		return UEReport{}, false
	}
	return e.report(s), true
}

func (e *ENB) report(s int32) UEReport {
	h := &e.hot
	c := &e.cold[s]
	return UEReport{
		RNTI:        h.rnti[s],
		IMSI:        c.params.IMSI,
		Cell:        c.params.Cell,
		State:       h.state[s],
		CQI:         h.cqi[s],
		DLQueue:     h.dlQueue[s],
		ULQueue:     h.ulQueue[s],
		SigQueue:    h.sigPending[s],
		DLDelivered: c.dlDelivered,
		ULDelivered: c.ulDelivered,
		DLDropped:   c.dlDropped,
		AvgDLKbps:   h.avgDL[s],
		AvgULKbps:   h.avgUL[s],
		HARQRetx:    c.harqRetx,
		LastSched:   h.lastSched[s],
		Group:       c.params.Group,
		AttachTries: c.attempts,
	}
}

// AppendUEReports appends a snapshot of every UE to dst, ordered by RNTI
// (e.order is kept sorted incrementally, so no per-snapshot sort). Callers
// on the per-TTI path pass a reused scratch slice (dst[:0]) to make the
// snapshot allocation-free at steady state.
func (e *ENB) AppendUEReports(dst []UEReport) []UEReport {
	for _, s := range e.order {
		dst = append(dst, e.report(s))
	}
	return dst
}

// UEReports snapshots every UE into a fresh slice, ordered by RNTI.
func (e *ENB) UEReports() []UEReport {
	return e.AppendUEReports(make([]UEReport, 0, len(e.order)))
}

// UEs returns the RNTIs of all current UEs, ordered.
func (e *ENB) UEs() []lte.RNTI {
	out := make([]lte.RNTI, len(e.order))
	for i, s := range e.order {
		out[i] = e.hot.rnti[s]
	}
	return out
}

// Connected reports whether a UE has completed attachment.
func (e *ENB) Connected(rnti lte.RNTI) bool {
	s, ok := e.slotFor(rnti)
	return ok && e.hot.state[s] == StateConnected
}

// CellReport is a point-in-time snapshot of one cell.
type CellReport struct {
	Cell     lte.CellID
	UsedPRB  int
	TotalPRB int
	Muted    bool // whether the *last executed* subframe was muted
}

// AppendCellReports appends a snapshot of every cell to dst, ordered by id.
func (e *ENB) AppendCellReports(dst []CellReport) []CellReport {
	last := e.sf
	if last > 0 {
		last--
	}
	for _, c := range e.sortedCells() {
		dst = append(dst, CellReport{
			Cell:     c.cfg.Cell,
			UsedPRB:  c.usedPRB,
			TotalPRB: c.prbs,
			Muted:    c.muted != nil && c.muted(last),
		})
	}
	return dst
}

// CellReports snapshots every cell into a fresh slice, ordered by id.
func (e *ENB) CellReports() []CellReport {
	return e.AppendCellReports(make([]CellReport, 0, len(e.cellList)))
}

// Active reports whether the cell transmitted any PRB in subframe sf.
// Only the last activityWindow subframes are retained; older queries
// return false. This is the interference-coupling hook: another eNodeB's
// channel model can ask whether this cell was transmitting.
func (e *ENB) Active(cellID lte.CellID, sf lte.Subframe) bool {
	c, ok := e.cells[cellID]
	if !ok {
		return false
	}
	slot := int(sf % activityWindow)
	return c.activitySF[slot] == sf && c.activity[slot] > 0
}

// SubbandsAt10MHz is the number of CQI subbands reported per UE over a
// 10 MHz carrier (36.213 Table 7.2.1-3).
const SubbandsAt10MHz = 13

// ToProtocolUEStats converts a snapshot into the protocol's report entry,
// including the subband CQIs, per-LC queue reports and L3 measurements the
// OAI agent forwards each TTI. The subband values are a deterministic
// ripple around the wideband CQI (the PHY abstraction has no frequency-
// selective model); RSRP/RSRQ derive from the CQI operating point.
func (r UEReport) ToProtocolUEStats() protocol.UEStats {
	var s protocol.UEStats
	r.FillProtocolUEStats(&s)
	return s
}

// FillProtocolUEStats is ToProtocolUEStats writing into a caller-owned
// entry: s's SubbandCQI/LCs capacity is reused, so a report builder that
// refills one StatsReply per subscription allocates nothing per TTI. All
// other fields of s are overwritten.
func (r UEReport) FillProtocolUEStats(s *protocol.UEStats) {
	sb, lcs := s.SubbandCQI, s.LCs
	*s = protocol.UEStats{
		RNTI:            r.RNTI,
		Cell:            r.Cell,
		CQI:             r.CQI,
		DLQueue:         uint64(r.DLQueue),
		ULQueue:         uint64(r.ULQueue),
		DLRateKbps:      uint32(r.AvgDLKbps),
		ULRateKbps:      uint32(r.AvgULKbps),
		HARQRetx:        r.HARQRetx,
		LastSchedSF:     r.LastSched,
		PowerHeadroomDB: 40 - 2*int32(r.CQI),
		RSRPdBm:         -140 + 6*int32(r.CQI),
		RSRQdB:          -20 + int32(r.CQI),
		Group:           r.Group,
	}
	s.SubbandCQI = sb[:0]
	if r.CQI > 0 {
		for i := 0; i < SubbandsAt10MHz; i++ {
			ripple := int(r.RNTI) + i*7
			c := int(r.CQI) + ripple%3 - 1
			if c < 1 {
				c = 1
			}
			if c > lte.MaxCQI {
				c = lte.MaxCQI
			}
			s.SubbandCQI = append(s.SubbandCQI, uint8(c))
		}
	}
	s.LCs = append(lcs[:0],
		protocol.LCReport{LCID: 1, Bytes: uint64(r.SigQueue)},                         // SRB1
		protocol.LCReport{LCID: 2, Bytes: 0},                                          // SRB2
		protocol.LCReport{LCID: 3, Bytes: uint64(r.DLQueue), HoLDelayMs: holDelay(r)}, // default DRB
	)
}

// holDelay estimates the head-of-line delay of the data bearer from the
// queue depth and the served rate.
func holDelay(r UEReport) uint32 {
	if r.AvgDLKbps < 1 {
		if r.DLQueue > 0 {
			return 1000
		}
		return 0
	}
	ms := float64(r.DLQueue) * 8 / r.AvgDLKbps
	if ms > 10000 {
		ms = 10000
	}
	return uint32(ms)
}

// ToProtocolCellStats converts a cell snapshot into the protocol entry.
func (r CellReport) ToProtocolCellStats() protocol.CellStats {
	return protocol.CellStats{
		Cell:     r.Cell,
		UsedPRB:  uint32(r.UsedPRB),
		TotalPRB: uint32(r.TotalPRB),
		ABS:      r.Muted,
	}
}
