package flexran_test

// Allocation-regression gates for the zero-allocation southbound fast path
// (PR 3). Each gate measures a steady-state hot-loop operation with
// testing.AllocsPerRun and fails the build if it allocates more than its
// budget, so later PRs cannot silently regress the fast path:
//
//   - encode+decode round trip of a 32-UE StatsReply (pooled codec)
//   - one agent report TTI (snapshot -> report build -> emit)
//   - one eNodeB data-plane TTI (snapshot -> schedule -> apply)
//   - one framed Conn send (coalesced single-write framing)
//
// Budgets carry small headroom over the measured steady state (a GC can
// empty a sync.Pool mid-measurement); the measured values at gate time are
// recorded next to each budget.

import (
	"net"
	"testing"

	"flexran/internal/agent"
	"flexran/internal/enb"
	"flexran/internal/lte"
	"flexran/internal/protocol"
	"flexran/internal/radio"
	"flexran/internal/transport"
)

// skipUnderRace skips an allocation gate when the race detector is on:
// -race randomizes sync.Pool caching (dropping pooled items to expose
// races), so allocation counts are not meaningful there. The gates run in
// the plain `go test ./...` tier-1 pass, which CI executes via -race AND
// the plain build/test steps — regressions still fail CI.
func skipUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race (sync.Pool caching is randomized)")
	}
}

// gateStatsReply builds an n-UE full report like the ones agents emit per
// TTI (subband CQIs and per-LC queue reports included). Shared by the
// gates and the fast-path benchmarks so the fixture cannot drift.
func gateStatsReply(n int) *protocol.StatsReply {
	rep := &protocol.StatsReply{ID: 1, SF: 1000}
	for i := 0; i < n; i++ {
		rep.UEs = append(rep.UEs, enb.UEReport{
			RNTI: lte.RNTI(0x46 + i), CQI: 12, DLQueue: 15000, AvgDLKbps: 9000,
		}.ToProtocolUEStats())
	}
	rep.Cells = []protocol.CellStats{{Cell: 0, UsedPRB: 40, TotalPRB: 50}}
	return rep
}

// newPipeConn builds a transport.Conn over an in-memory pipe whose peer
// drains everything written (shared by gates and benchmarks).
func newPipeConn(tb testing.TB) *transport.Conn {
	tb.Helper()
	local, peer := net.Pipe()
	go func() {
		buf := make([]byte, 1<<16)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	c := transport.NewConn(local, 16)
	tb.Cleanup(func() {
		c.Close()
		peer.Close()
	})
	return c
}

// TestAllocGateMessageRoundTrip gates the pooled codec: serializing one
// 32-UE StatsReply into a reused buffer and decoding it through the free
// lists must not allocate at steady state. (Measured: 0 allocs/op.)
func TestAllocGateMessageRoundTrip(t *testing.T) {
	skipUnderRace(t)
	const budget = 2
	msg := protocol.New(1, 1000, gateStatsReply(32))
	var buf []byte
	op := func() {
		buf = protocol.AppendMessage(buf[:0], msg)
		m, err := protocol.DecodePooled(buf)
		if err != nil {
			t.Fatal(err)
		}
		m.Release()
	}
	for i := 0; i < 100; i++ {
		op() // warm the pools and grow every scratch buffer
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("32-UE StatsReply round trip: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateAgentReportTTI gates the report fast path: one data-plane
// TTI of a 16-UE eNodeB with a per-TTI full-stats subscription — snapshot,
// in-place report build and emit included. The remaining allocations are
// the message envelope and the local scheduler's working set, not the
// report path. (Measured: 14 allocs/op.)
func TestAllocGateAgentReportTTI(t *testing.T) {
	skipUnderRace(t)
	const budget = 24
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	a := agent.New(e, agent.Options{})
	a.Connect(func(m *protocol.Message) error { return nil })
	rntis := make([]lte.RNTI, 0, 16)
	for i := 0; i < 16; i++ {
		rnti, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: radio.Fixed(12)})
		if err != nil {
			t.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	a.Deliver(protocol.New(1, 0, &protocol.StatsRequest{
		ID: 1, Mode: protocol.StatsPeriodic, PeriodTTI: 1, Flags: protocol.StatsAll,
	}))
	op := func() {
		for _, r := range rntis {
			e.DLEnqueue(r, 3000)
		}
		e.Step()
	}
	for i := 0; i < 200; i++ {
		op() // complete attach and warm all per-TTI scratch
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("agent report TTI: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateENBStep gates the data-plane TTI: one Step of a 16-UE
// eNodeB, every UE backlogged, under the default round-robin scheduler.
// Snapshot, scheduling and allocation apply all run on reused scratch, so
// the budget is 0. (Measured: 0 allocs/op.)
func TestAllocGateENBStep(t *testing.T) {
	skipUnderRace(t)
	const budget = 0
	e := enb.New(enb.Config{ID: 1, Seed: 1})
	rntis := make([]lte.RNTI, 0, 16)
	for i := 0; i < 16; i++ {
		rnti, err := e.AddUE(enb.UEParams{IMSI: uint64(i + 1), Cell: 0, Channel: radio.Fixed(12)})
		if err != nil {
			t.Fatal(err)
		}
		rntis = append(rntis, rnti)
	}
	op := func() {
		for _, r := range rntis {
			e.DLEnqueue(r, 3000)
		}
		e.Step()
	}
	for i := 0; i < 200; i++ {
		op() // complete attach and warm the scheduler scratch
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("eNodeB TTI: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocGateConnSend gates the framed transport send: one coalesced
// single-write frame of a 16-UE report through transport.Conn must not
// allocate at steady state. (Measured: 0 allocs/op.)
func TestAllocGateConnSend(t *testing.T) {
	skipUnderRace(t)
	const budget = 2
	c := newPipeConn(t)
	msg := protocol.New(1, 1000, gateStatsReply(16))
	op := func() {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		op() // grow the connection's write buffer
	}
	if got := testing.AllocsPerRun(1000, op); got > budget {
		t.Errorf("framed Conn send: %.1f allocs/op, budget %d", got, budget)
	}
}
