package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flexran/internal/lte"
)

// The reference schedulers below are the allocating implementations the
// scratch-reusing ones replaced: a fresh index slice per call, sort.Slice
// for RNTI order, sort.SliceStable with the metric recomputed inside the
// comparator, and a map of Metric scores. The differential test holds the
// current schedulers to their exact output. The one change carried over is
// the servable filter: the old CQI>0 test let an uplink CQI-1 UE (zero
// bytes per PRB) into RoundRobin, which then divided by zero.

func refFill(in Input, order []int) []Alloc {
	var out []Alloc
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
		n := min((ue.QueueBytes+per-1)/per, left)
		out = append(out, Alloc{RNTI: ue.RNTI, RBStart: rbStart, RBCount: n, MCS: lte.MCSForCQI(ue.CQI)})
		rbStart += n
		left -= n
	}
	return out
}

func refBacklogged(in Input) []int {
	var idx []int
	for i, ue := range in.UEs {
		if servable(in.Dir, &ue) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return in.UEs[idx[a]].RNTI < in.UEs[idx[b]].RNTI
	})
	return idx
}

type refRoundRobin struct{ rot int }

func (s *refRoundRobin) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	if len(idx) == 0 {
		return nil
	}
	share := in.TotalPRB / len(idx)
	extra := in.TotalPRB % len(idx)
	var out []Alloc
	rbStart := 0
	spare := 0
	for pos := range idx {
		i := idx[(pos+s.rot)%len(idx)]
		ue := in.UEs[i]
		quota := share
		if pos < extra {
			quota++
		}
		per := bytesPerPRB(in.Dir, ue.CQI)
		need := (ue.QueueBytes + per - 1) / per
		n := quota + spare
		if n > need {
			spare = n - need
			n = need
		} else {
			spare = 0
		}
		if n == 0 {
			continue
		}
		out = append(out, Alloc{RNTI: ue.RNTI, RBStart: rbStart, RBCount: n, MCS: lte.MCSForCQI(ue.CQI)})
		rbStart += n
	}
	s.rot++
	return out
}

type refProportionalFair struct{}

func (refProportionalFair) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	sort.SliceStable(idx, func(a, b int) bool {
		return pfMetric(in, in.UEs[idx[a]]) > pfMetric(in, in.UEs[idx[b]])
	})
	return refFill(in, idx)
}

type refMaxCQI struct{}

func (refMaxCQI) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	sort.SliceStable(idx, func(a, b int) bool {
		return in.UEs[idx[a]].CQI > in.UEs[idx[b]].CQI
	})
	return refFill(in, idx)
}

type refMetric struct{ fn MetricFunc }

func (m refMetric) Schedule(in Input) []Alloc {
	idx := refBacklogged(in)
	scores := make(map[int]float64, len(idx))
	for _, i := range idx {
		scores[i] = m.fn(in, in.UEs[i])
	}
	kept := idx[:0]
	for _, i := range idx {
		if scores[i] >= 0 {
			kept = append(kept, i)
		}
	}
	sort.SliceStable(kept, func(a, b int) bool {
		return scores[kept[a]] > scores[kept[b]]
	})
	return refFill(in, kept)
}

// tieMetric scores on a coarse scale with many ties and some exclusions,
// so stability and the negative filter both matter.
func tieMetric(in Input, ue UEInfo) float64 {
	return float64(ue.QueueBytes%7) - 1 + float64(in.SF%2)/2
}

// randomInput draws one scheduler input. A third of the inputs are in
// strictly increasing RNTI order (the eNodeB snapshot shape), a third are
// shuffled, and a third draw RNTIs from a small range so duplicates are
// common. CQI 0, empty queues and sub-1 kb/s averages are all frequent.
func randomInput(r *rand.Rand) Input {
	n := r.Intn(20)
	if r.Intn(4) == 0 {
		n = 20 + r.Intn(60) // past the insertion-sort cutoff
	}
	in := Input{
		SF:       lte.Subframe(r.Intn(1 << 20)),
		Dir:      lte.Direction(r.Intn(2)),
		TotalPRB: r.Intn(101),
		UEs:      make([]UEInfo, n),
	}
	shape := r.Intn(3)
	next := lte.RNTI(lte.FirstUERNTI)
	for i := range in.UEs {
		ue := &in.UEs[i]
		switch shape {
		case 0, 1:
			next += lte.RNTI(1 + r.Intn(3))
			ue.RNTI = next
		default:
			ue.RNTI = lte.FirstUERNTI + lte.RNTI(r.Intn(n/2+1))
		}
		if r.Intn(4) > 0 {
			ue.CQI = lte.CQI(r.Intn(16))
		}
		if r.Intn(4) > 0 {
			ue.QueueBytes = 1 + r.Intn(200000)
		}
		ue.AvgRateKbps = float64(r.Intn(20000)) * r.Float64()
		ue.Group = r.Intn(3)
	}
	if shape == 1 {
		r.Shuffle(n, func(i, j int) { in.UEs[i], in.UEs[j] = in.UEs[j], in.UEs[i] })
	}
	return in
}

// TestSchedulersMatchReference runs each scheduler against its reference
// over 10k seeded random inputs. One long-lived instance of each sees
// every input in turn, so reused scratch from one call can never leak into
// the next, and RoundRobin's rotation must track the reference's.
func TestSchedulersMatchReference(t *testing.T) {
	type pair struct {
		name string
		got  Scheduler
		want interface{ Schedule(Input) []Alloc }
	}
	pairs := []pair{
		{"rr", NewRoundRobin(), &refRoundRobin{}},
		{"pf", NewProportionalFair(), refProportionalFair{}},
		{"maxcqi", NewMaxCQI(), refMaxCQI{}},
		{"metric", NewMetric("ties", tieMetric), refMetric{fn: tieMetric}},
	}
	r := rand.New(rand.NewSource(14))
	for iter := 0; iter < 10000; iter++ {
		in := randomInput(r)
		orig := slices.Clone(in.UEs)
		for _, p := range pairs {
			want := p.want.Schedule(in)
			got := p.got.Schedule(in)
			if !slices.Equal(got, want) {
				t.Fatalf("iteration %d, %s: got %+v, want %+v\ninput %+v", iter, p.name, got, want, in)
			}
			if !slices.Equal(in.UEs, orig) {
				t.Fatalf("iteration %d, %s: Schedule modified its input", iter, p.name)
			}
		}
	}
}

// TestSchedulersDoNotAllocate pins the per-TTI cost: once warm, a
// schedule of an RNTI-ordered snapshot (the eNodeB's shape) allocates
// nothing in any priority scheduler.
func TestSchedulersDoNotAllocate(t *testing.T) {
	in := Input{SF: 1, Dir: lte.Downlink, TotalPRB: 50}
	for i := 0; i < 16; i++ {
		in.UEs = append(in.UEs, UEInfo{
			RNTI: lte.FirstUERNTI + lte.RNTI(i), CQI: lte.CQI(1 + i%15),
			QueueBytes: 3000 * (i%3 + 1), AvgRateKbps: float64(100 * i),
		})
	}
	for _, s := range []Scheduler{
		NewRoundRobin(), NewProportionalFair(), NewMaxCQI(), NewMetric("ties", tieMetric),
	} {
		op := func() {
			in.SF++
			s.Schedule(in)
		}
		op() // grow the scratch
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s: %.1f allocs per Schedule, want 0", s.Name(), got)
		}
	}
}
