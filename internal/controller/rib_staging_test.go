package controller

import (
	"slices"
	"testing"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

func stormHello(enb lte.ENBID, epoch uint64) *protocol.Message {
	return protocol.New(enb, 0, &protocol.Hello{
		Version: protocol.ProtocolVersion,
		Epoch:   epoch,
		Config: protocol.ENBConfig{ID: enb, Cells: []protocol.CellConfig{
			{Cell: 0, Bandwidth: lte.BW10MHz},
		}},
	})
}

func stormAttach(enb lte.ENBID, rnti lte.RNTI) *protocol.Message {
	return protocol.New(enb, 1, &protocol.UEEvent{Type: protocol.UEEventAttach, RNTI: rnti, Cell: 0})
}

func stormStats(enb lte.ENBID, rnti lte.RNTI, cqi lte.CQI) *protocol.Message {
	return protocol.New(enb, 1, &protocol.StatsReply{ID: 1, SF: 1, UEs: []protocol.UEStats{
		{RNTI: rnti, Cell: 0, CQI: cqi},
	}})
}

// agentsSeen records the directory size the application slot observes.
type agentsSeen struct{ n []int }

func (*agentsSeen) Name() string { return "agents-seen" }
func (a *agentsSeen) OnTick(ctx *Context, _ lte.Subframe) {
	a.n = append(a.n, len(ctx.RIB().Agents()))
}

// TestHelloStormPublishesTopologyOncePerTick delivers 512 Hellos in one
// Tick, most followed in the same batch by UE events, stats or a handover
// completion, plus a re-Hello taking over a live agent. Writes after a
// Hello must land on the shard it staged, the application slot must see
// the whole new directory, and the topology must be published exactly
// once for the Tick.
func TestHelloStormPublishesTopologyOncePerTick(t *testing.T) {
	const storm = 512
	const live = lte.ENBID(10_000)
	opts := DefaultOptions()
	opts.Workers = 4
	m := NewMaster(opts)
	seen := &agentsSeen{}
	m.Register(seen, 0)
	nop := func(*protocol.Message) error { return nil }

	old := m.HandleAgentSession(nop)
	old.Deliver(stormHello(live, 1), stormAttach(live, 0x10), stormAttach(live, 0x11))
	m.Tick()
	if m.rib.publishes != 1 || m.RIB().UECount(live) != 2 {
		t.Fatalf("setup: publishes=%d UECount=%d, want 1 and 2", m.rib.publishes, m.RIB().UECount(live))
	}
	oldShard := m.rib.shard(live)

	// Attach in descending id order so the directory has to be sorted.
	for id := lte.ENBID(storm); id >= 1; id-- {
		s := m.HandleAgentSession(nop)
		msgs := []*protocol.Message{stormHello(id, 1)}
		switch id % 4 {
		case 1:
			msgs = append(msgs, stormAttach(id, 0x46), stormStats(id, 0x46, 9))
		case 2:
			msgs = append(msgs, stormStats(id, 0x50, 7), stormStats(id, 0x51, 8))
		case 3:
			msgs = append(msgs, protocol.New(id, 1, &protocol.HandoverComplete{
				RNTI: 0x60, IMSI: uint64(id), Cell: 0, SourceENB: id + 1, SourceRNTI: 0x61,
			}))
		}
		s.Deliver(msgs...)
	}
	fresh := m.HandleAgentSession(nop)
	fresh.Deliver(stormHello(live, 2), stormAttach(live, 0x20))
	m.Tick()

	if got := m.rib.publishes; got != 2 {
		t.Fatalf("topology publications after the storm Tick = %d, want 2 (one per Tick)", got)
	}
	want := make([]lte.ENBID, 0, storm+1)
	for id := lte.ENBID(1); id <= storm; id++ {
		want = append(want, id)
	}
	want = append(want, live)
	if got := m.RIB().Agents(); !slices.Equal(got, want) {
		t.Fatalf("Agents() = %d ids (sorted=%v), want %d sorted ids",
			len(got), slices.IsSorted(got), len(want))
	}
	if got := seen.n; !slices.Equal(got, []int{1, storm + 1}) {
		t.Errorf("application slot saw directory sizes %v, want [1 %d]", got, storm+1)
	}
	rib := m.RIB()
	for id := lte.ENBID(1); id <= storm; id++ {
		if !rib.Connected(id) {
			t.Fatalf("agent %d not connected", id)
		}
		switch id % 4 {
		case 0:
			if n := rib.UECount(id); n != 0 {
				t.Fatalf("agent %d: UECount=%d, want 0", id, n)
			}
		case 1:
			st, ok := rib.UEStats(id, 0x46)
			if n := rib.UECount(id); n != 1 || !ok || st.CQI != 9 {
				t.Fatalf("agent %d: UECount=%d stats=%+v ok=%v, want one UE at CQI 9", id, n, st, ok)
			}
		case 2:
			if n := rib.UECount(id); n != 2 {
				t.Fatalf("agent %d: UECount=%d, want 2", id, n)
			}
		case 3:
			cfg, ok := rib.UEConfigOf(id, 0x60)
			if !ok || cfg.IMSI != uint64(id) {
				t.Fatalf("agent %d: handed-over UE config=%+v ok=%v", id, cfg, ok)
			}
		}
	}
	if rib.shard(live) == oldShard {
		t.Error("re-Hello left the replaced shard published")
	}
	if n := rib.UECount(live); n != 1 {
		t.Errorf("re-Helloed agent UECount=%d, want 1 (only the new incarnation's UE)", n)
	}
	if _, ok := rib.UEConfigOf(live, 0x10); ok {
		t.Error("UE record of the replaced shard survived the re-Hello")
	}
	if _, ok := rib.UEConfigOf(live, 0x20); !ok {
		t.Error("new incarnation's UE missing")
	}

	// Ticks without a Hello publish nothing.
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	if got := m.rib.publishes; got != 2 {
		t.Errorf("publications after idle Ticks = %d, want 2", got)
	}
}

// TestResyncBeforeHelloStagesShard: a snapshot that outran the Hello
// creates the shard from its own config; later writes in the same slot
// find it, and readers see it only once the topology is published.
func TestResyncBeforeHelloStagesShard(t *testing.T) {
	r := NewRIB()
	r.applyResync(7, &protocol.StateSnapshot{
		SF:      3,
		Config:  protocol.ENBConfig{ID: 7, Cells: []protocol.CellConfig{{Cell: 0}}},
		UEs:     []protocol.UEStats{{RNTI: 0x46, Cell: 0, CQI: 5}},
		Configs: []protocol.UEConfig{{RNTI: 0x46, Cell: 0, IMSI: 77}},
	})
	r.applyUEEvent(7, &protocol.UEEvent{Type: protocol.UEEventAttach, RNTI: 0x47, Cell: 0})
	if len(r.Agents()) != 0 || r.Connected(7) {
		t.Fatal("staged shard visible to readers before publication")
	}
	r.publishTopology()
	if got := r.Agents(); !slices.Equal(got, []lte.ENBID{7}) {
		t.Fatalf("Agents() = %v, want [7]", got)
	}
	if n := r.UECount(7); n != 2 {
		t.Errorf("UECount = %d, want 2", n)
	}
	if cfg, ok := r.UEConfigOf(7, 0x46); !ok || cfg.IMSI != 77 {
		t.Errorf("resynced UE config = %+v ok=%v", cfg, ok)
	}
	if r.anyStaged.Load() || len(r.staged) != 0 {
		t.Error("staging area not emptied by publication")
	}
}

// BenchmarkHelloStorm measures the attach storm of a 4096-agent
// deployment: 4096 sessions each deliver one Hello, absorbed by one Tick.
func BenchmarkHelloStorm(b *testing.B) {
	const agents = 4096
	nop := func(*protocol.Message) error { return nil }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewMaster(DefaultOptions())
		for id := lte.ENBID(1); id <= agents; id++ {
			m.HandleAgentSession(nop).Deliver(stormHello(id, 1))
		}
		b.StartTimer()
		m.Tick()
	}
}
