// Package sched implements the MAC scheduling algorithms used throughout
// the reproduction: the local VSF schedulers at the agent (round-robin,
// proportional fair), the centralized schedulers of the master's
// applications, and the RAN-sharing schedulers of the Fig. 12 use case
// (per-operator slicing with fair and group-based policies).
//
// Schedulers are pure with respect to the data plane: they map an Input
// snapshot (backlogged UEs with channel state) to a list of allocations.
// Some keep internal fairness state (rotation pointers), which is
// explicitly documented per type.
package sched

import (
	"cmp"
	"slices"

	"flexran/internal/lte"
)

// UEInfo is the per-UE scheduler input.
type UEInfo struct {
	RNTI lte.RNTI
	// CQI is the latest reported wideband CQI (possibly stale when the
	// scheduler runs remotely; the data plane checks deliverability).
	CQI lte.CQI
	// QueueBytes is the pending RLC transmission queue (DL) or buffer
	// status report (UL).
	QueueBytes int
	// AvgRateKbps is the long-term served rate, maintained by the MAC;
	// the proportional-fair metric divides by it.
	AvgRateKbps float64
	// LastSched is the last subframe this UE was allocated.
	LastSched lte.Subframe
	// Group labels the UE's slice/tier for quota-based schedulers
	// (operator index for RAN sharing, priority tier for group-based).
	Group int
}

// Input is one scheduling invocation: a subframe, a PRB budget and the
// candidate UEs.
type Input struct {
	SF       lte.Subframe
	Dir      lte.Direction
	TotalPRB int
	UEs      []UEInfo
}

// Alloc is one UE's scheduled allocation.
type Alloc struct {
	RNTI    lte.RNTI
	RBStart int
	RBCount int
	MCS     lte.MCS
}

// Scheduler maps an input snapshot to allocations. Implementations must
// never allocate more than Input.TotalPRB resource blocks in total and
// must keep allocations disjoint.
//
// The returned slice belongs to the scheduler and stays valid only until
// its next Schedule call, which may reuse it: the per-TTI path keeps its
// working memory instead of allocating. A caller that keeps a decision
// longer copies it (Slicer and the controller's ScheduleDL do). For the
// same reason one instance must not run on two goroutines at once.
type Scheduler interface {
	// Name identifies the scheduler (used as VSF cache keys and in
	// policy documents).
	Name() string
	Schedule(in Input) []Alloc
}

// bytesPerPRB returns the per-PRB transport capacity for a UE, 0 when the
// UE cannot be served (CQI 0).
func bytesPerPRB(dir lte.Direction, c lte.CQI) int {
	return lte.TBSBytes(dir, c, 1)
}

// FillByOrder appends to dst the allocations of UEs taken in the given
// priority order (indices into in.UEs). Each UE receives just enough PRBs
// to drain its queue this TTI, and the remainder flows to the next UE — a
// work-conserving greedy fill used by every priority-ordered scheduler in
// this package.
func FillByOrder(dst []Alloc, in Input, order []int) []Alloc {
	rbStart := 0
	left := in.TotalPRB
	for _, idx := range order {
		if left == 0 {
			break
		}
		ue := in.UEs[idx]
		per := bytesPerPRB(in.Dir, ue.CQI)
		if ue.QueueBytes <= 0 || per == 0 {
			continue
		}
		need := (ue.QueueBytes + per - 1) / per
		n := need
		if n > left {
			n = left
		}
		dst = append(dst, Alloc{
			RNTI:    ue.RNTI,
			RBStart: rbStart,
			RBCount: n,
			MCS:     lte.MCSForCQI(ue.CQI),
		})
		rbStart += n
		left -= n
	}
	return dst
}

// scratch is one scheduler instance's reusable working memory: candidate
// indices, per-UE scores (indexed like Input.UEs) and the result. Once
// grown to the cell's UE count, Schedule allocates nothing.
type scratch struct {
	idx   []int
	score []float64
	out   []Alloc
}

// servable reports whether a UE has data and a channel that carries at
// least one byte per PRB in the input's direction. CQI 0 never does, and
// neither does CQI 1 in the uplink; RoundRobin divides by the per-PRB
// capacity, so such a UE must not reach it.
func servable(dir lte.Direction, ue *UEInfo) bool {
	return ue.QueueBytes > 0 && bytesPerPRB(dir, ue.CQI) > 0
}

// backlogged returns the indices of servable UEs in RNTI order. An input
// already in strictly increasing RNTI order (every eNodeB snapshot) is
// only filtered; any other input is sorted. The sort is unstable but
// deterministic, so duplicate RNTIs still come out in a fixed order.
func (sc *scratch) backlogged(in Input) []int {
	idx := sc.idx[:0]
	ordered := true
	var last lte.RNTI
	for i := range in.UEs {
		ue := &in.UEs[i]
		if !servable(in.Dir, ue) {
			continue
		}
		if len(idx) > 0 && ue.RNTI <= last {
			ordered = false
		}
		last = ue.RNTI
		idx = append(idx, i)
	}
	if !ordered {
		slices.SortFunc(idx, func(a, b int) int {
			return cmp.Compare(in.UEs[a].RNTI, in.UEs[b].RNTI)
		})
	}
	sc.idx = idx
	return idx
}

// scores returns the score scratch sized to in.UEs.
func (sc *scratch) scores(in Input) []float64 {
	if cap(sc.score) < len(in.UEs) {
		sc.score = make([]float64, len(in.UEs))
	}
	sc.score = sc.score[:len(in.UEs)]
	return sc.score
}

// fillByScore stably orders idx by descending score (ties keep RNTI
// order) and fills in that order.
func (sc *scratch) fillByScore(in Input, idx []int) []Alloc {
	score := sc.score
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(score[b], score[a]) })
	sc.out = FillByOrder(sc.out[:0], in, idx)
	return sc.out
}

// RoundRobin is the fair equal-share scheduler: every backlogged UE gets
// an equal PRB share each TTI, with the integer remainder rotating across
// TTIs so long-run shares equalize. This is the "fair scheduling policy"
// of the Fig. 12b MNO.
type RoundRobin struct {
	rot int // rotation offset for remainder distribution
	sc  scratch
}

// NewRoundRobin returns a fair equal-share scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "rr" }

// Schedule implements Scheduler.
func (s *RoundRobin) Schedule(in Input) []Alloc {
	idx := s.sc.backlogged(in)
	if len(idx) == 0 {
		return nil
	}
	n := len(idx)
	share := in.TotalPRB / n
	extra := in.TotalPRB % n
	out := s.sc.out[:0]
	rbStart := 0
	spare := 0 // PRBs returned by UEs that need less than their share
	// Start the walk at the rotation offset so the +1 remainder moves
	// across UEs over time.
	j := s.rot % n
	for pos := 0; pos < n; pos, j = pos+1, j+1 {
		if j == n {
			j = 0
		}
		ue := &in.UEs[idx[j]]
		quota := share
		if pos < extra {
			quota++
		}
		per := bytesPerPRB(in.Dir, ue.CQI)
		need := (ue.QueueBytes + per - 1) / per
		grant := quota + spare
		if grant > need {
			spare = grant - need
			grant = need
		} else {
			spare = 0
		}
		if grant == 0 {
			continue
		}
		out = append(out, Alloc{
			RNTI:    ue.RNTI,
			RBStart: rbStart,
			RBCount: grant,
			MCS:     lte.MCSForCQI(ue.CQI),
		})
		rbStart += grant
	}
	s.rot++
	s.sc.out = out
	return out
}

// ProportionalFair ranks UEs by instantaneous-rate over average-rate, the
// classic PF metric, then greedily fills. The average rate is supplied by
// the MAC in UEInfo.AvgRateKbps.
type ProportionalFair struct{ sc scratch }

// NewProportionalFair returns a PF scheduler.
func NewProportionalFair() *ProportionalFair { return &ProportionalFair{} }

// Name implements Scheduler.
func (*ProportionalFair) Name() string { return "pf" }

// Schedule implements Scheduler.
func (s *ProportionalFair) Schedule(in Input) []Alloc {
	idx := s.sc.backlogged(in)
	score := s.sc.scores(in)
	for _, i := range idx {
		score[i] = pfMetric(in, in.UEs[i])
	}
	return s.sc.fillByScore(in, idx)
}

func pfMetric(in Input, ue UEInfo) float64 {
	inst := float64(lte.TBSBits(in.Dir, ue.CQI, in.TotalPRB)) // bits/TTI
	avg := ue.AvgRateKbps
	if avg < 1 {
		avg = 1 // unserved UEs get maximal priority
	}
	return inst / avg
}

// MaxCQI always serves the best channel first (maximum-throughput,
// fairness-free; the baseline that motivates PF).
type MaxCQI struct{ sc scratch }

// NewMaxCQI returns a max-CQI scheduler.
func NewMaxCQI() *MaxCQI { return &MaxCQI{} }

// Name implements Scheduler.
func (*MaxCQI) Name() string { return "maxcqi" }

// Schedule implements Scheduler.
func (s *MaxCQI) Schedule(in Input) []Alloc {
	idx := s.sc.backlogged(in)
	score := s.sc.scores(in)
	for _, i := range idx {
		score[i] = float64(in.UEs[i].CQI)
	}
	return s.sc.fillByScore(in, idx)
}

// MetricFunc scores one UE; higher runs first. UEs scoring negative are
// not scheduled at all.
type MetricFunc func(in Input, ue UEInfo) float64

// Metric is the generic priority scheduler: it orders backlogged UEs by a
// caller-supplied metric and greedily fills. The agent uses it to execute
// vsfdsl programs pushed by the master (VSF updation), closing the paper's
// code-push loop.
type Metric struct {
	name string
	fn   MetricFunc
	sc   scratch
}

// NewMetric builds a metric scheduler.
func NewMetric(name string, fn MetricFunc) *Metric {
	return &Metric{name: name, fn: fn}
}

// Name implements Scheduler.
func (m *Metric) Name() string { return m.name }

// Schedule implements Scheduler.
func (m *Metric) Schedule(in Input) []Alloc {
	idx := m.sc.backlogged(in)
	score := m.sc.scores(in)
	kept := idx[:0]
	for _, i := range idx {
		if score[i] = m.fn(in, in.UEs[i]); score[i] >= 0 {
			kept = append(kept, i)
		}
	}
	return m.sc.fillByScore(in, kept)
}
