// Package controller implements the FlexRAN master controller (paper
// §4.3.3): the RAN Information Base (a forest of agents, cells and UEs),
// the single-writer-per-agent RIB Updater, the Task Manager running
// applications in TTI cycles, the Event Notification Service and the
// northbound API that RAN control/management applications program against.
package controller

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"flexran/internal/lte"
	"flexran/internal/protocol"
)

// UERecord is a UE leaf of the RIB.
type UERecord struct {
	Config    protocol.UEConfig
	Stats     protocol.UEStats
	UpdatedSF lte.Subframe // agent subframe of the latest stats
	// Meas is the latest A3 measurement report (nil before the first);
	// MeasSF stamps when it arrived.
	Meas   *protocol.MeasReport
	MeasSF lte.Subframe
}

// CellRecord is a cell node of the RIB.
type CellRecord struct {
	Config protocol.CellConfig
	Stats  protocol.CellStats
	UEs    map[lte.RNTI]*UERecord
}

// agentShard is one shard of the RIB: the complete record of one agent.
// Sharding by ENBID works because every inbound message mutates exactly
// one agent's subtree, so updaters for different eNodeBs never contend.
// Hot scalar fields (agent time, liveness, UE count) are atomics so the
// corresponding read paths take no lock at all.
type agentShard struct {
	mu     sync.RWMutex // guards config and the cells subtree
	config protocol.ENBConfig
	cells  map[lte.CellID]*CellRecord

	lastSF    atomic.Uint64 // lte.Subframe of the agent's latest observed time
	connected atomic.Bool
	ueCount   atomic.Int64
	// health is the monitor's grade (HealthState; zero = Healthy). Written
	// only by healthTick in the master's serial phase; read lock-free by
	// policy code via HealthOf.
	health atomic.Uint32
}

// ribTopology is the copy-on-write agent directory. Readers resolve ENBID
// to shard without locking. The shard set only changes on Hello, and the
// updater republishes it once per Tick, after its slot's barrier (see
// publishTopology), so an attach storm of N Hellos costs one O(N log N)
// publication instead of N of them.
type ribTopology struct {
	shards map[lte.ENBID]*agentShard
	ids    []lte.ENBID // sorted
}

// RIB is the RAN Information Base, sharded by ENBID. Mutation is reserved
// to the RIB Updater (the master's Tick) with at most one updater per
// agent at a time; applications read concurrently. Per-shard locks keep
// the paper's single-writer/multi-reader discipline while letting reports
// from different eNodeBs be absorbed in parallel.
type RIB struct {
	topo atomic.Pointer[ribTopology]

	// staged holds the shards applyHello built during the current updater
	// slot, not yet visible to readers. Writer-side lookups (shardW) see
	// them first; anyStaged lets those lookups skip the lock whenever
	// nothing is staged, which is every steady-state Tick.
	stageMu   sync.Mutex
	staged    map[lte.ENBID]*agentShard
	anyStaged atomic.Bool

	// publishes counts topology publications (tests pin one per Tick).
	publishes int
}

// NewRIB returns an empty information base.
func NewRIB() *RIB {
	r := &RIB{staged: map[lte.ENBID]*agentShard{}}
	r.topo.Store(&ribTopology{shards: map[lte.ENBID]*agentShard{}})
	return r
}

// shard resolves an agent in the published topology (reader side).
func (r *RIB) shard(enb lte.ENBID) *agentShard {
	return r.topo.Load().shards[enb]
}

// --- writer side (RIB Updater only) ---

// shardW resolves an agent for a writer: a shard staged by a Hello earlier
// in this slot shadows the published one, so a session's later messages in
// the same batch, a resync that outran its Hello and a re-Hello of a live
// agent all land on the shard that publishTopology is about to expose.
func (r *RIB) shardW(enb lte.ENBID) *agentShard {
	if r.anyStaged.Load() {
		r.stageMu.Lock()
		sh, ok := r.staged[enb]
		r.stageMu.Unlock()
		if ok {
			return sh
		}
	}
	return r.shard(enb)
}

// applyHello builds a fresh shard for enb (a re-Hello replaces the whole
// subtree) and stages it; readers see it once the Tick republishes the
// topology.
func (r *RIB) applyHello(enb lte.ENBID, cfg protocol.ENBConfig) {
	sh := &agentShard{
		config: cfg,
		cells:  map[lte.CellID]*CellRecord{},
	}
	for _, cc := range cfg.Cells {
		sh.cells[cc.Cell] = &CellRecord{Config: cc, UEs: map[lte.RNTI]*UERecord{}}
	}
	sh.connected.Store(true)

	r.stageMu.Lock()
	r.staged[enb] = sh
	r.anyStaged.Store(true)
	r.stageMu.Unlock()
}

// publishTopology folds the staged shards into a new topology snapshot:
// one map copy and one sort however many Hellos the slot applied. It runs
// on the tick goroutine after the updater barrier; the new snapshot is
// stored before the staging area empties, so a concurrent writer lookup
// finds each shard in one place or the other.
func (r *RIB) publishTopology() {
	if !r.anyStaged.Load() {
		return
	}
	r.stageMu.Lock()
	defer r.stageMu.Unlock()
	old := r.topo.Load()
	next := &ribTopology{
		shards: make(map[lte.ENBID]*agentShard, len(old.shards)+len(r.staged)),
		ids:    old.ids,
	}
	maps.Copy(next.shards, old.shards)
	var added []lte.ENBID
	for id, sh := range r.staged {
		if _, ok := next.shards[id]; !ok {
			added = append(added, id)
		}
		next.shards[id] = sh
	}
	if len(added) > 0 {
		// Published id slices are shared with readers: build a new one.
		ids := make([]lte.ENBID, 0, len(next.shards))
		ids = append(append(ids, old.ids...), added...)
		slices.Sort(ids)
		next.ids = ids
	}
	r.topo.Store(next)
	clear(r.staged)
	r.anyStaged.Store(false)
	r.publishes++
}

// applyDisconnect marks an agent down and reports whether it was live.
func (r *RIB) applyDisconnect(enb lte.ENBID) bool {
	sh := r.shardW(enb)
	return sh != nil && sh.connected.Swap(false)
}

// applyResync rebuilds an agent's shard from a StateSnapshot: the UE forest
// under every cell is replaced wholesale by the snapshot's entries (full
// statistics deep-copied, identities joined by RNTI), cell statistics and
// the agent-time watermark are refreshed, and the agent is marked live.
// This is the one-cycle RIB convergence path after a reconnect — no
// dependence on periodic reports trickling the state back in. If the
// snapshot outran the Hello (no shard yet), the shard is created from the
// snapshot's own config; the snapshot payload is pooling-exempt for
// exactly this retention.
func (r *RIB) applyResync(enb lte.ENBID, snap *protocol.StateSnapshot) {
	sh := r.shardW(enb)
	if sh == nil {
		r.applyHello(enb, snap.Config)
		sh = r.shardW(enb)
	}
	imsis := map[lte.RNTI]uint64{}
	for i := range snap.Configs {
		imsis[snap.Configs[i].RNTI] = snap.Configs[i].IMSI
	}
	count := 0
	sh.mu.Lock()
	for _, c := range sh.cells {
		for rnti := range c.UEs {
			delete(c.UEs, rnti)
		}
	}
	for i := range snap.UEs {
		us := &snap.UEs[i]
		c := sh.cells[us.Cell]
		if c == nil {
			continue
		}
		u := &UERecord{Config: protocol.UEConfig{
			RNTI: us.RNTI, Cell: us.Cell, IMSI: imsis[us.RNTI],
		}}
		u.Stats.CopyFrom(us)
		u.UpdatedSF = snap.SF
		c.UEs[us.RNTI] = u
		count++
	}
	for _, cs := range snap.Cells {
		if c := sh.cells[cs.Cell]; c != nil {
			c.Stats = cs
		}
	}
	sh.mu.Unlock()
	sh.ueCount.Store(int64(count))
	sh.advanceSF(snap.SF)
	sh.connected.Store(true)
}

// advanceSF lifts the shard's agent-time watermark to sf (monotonic).
func (sh *agentShard) advanceSF(sf lte.Subframe) {
	for {
		old := sh.lastSF.Load()
		if uint64(sf) <= old {
			return
		}
		if sh.lastSF.CompareAndSwap(old, uint64(sf)) {
			return
		}
	}
}

func (r *RIB) applySF(enb lte.ENBID, sf lte.Subframe) {
	if sh := r.shardW(enb); sh != nil {
		sh.advanceSF(sf)
	}
}

func (r *RIB) applyStats(enb lte.ENBID, rep *protocol.StatsReply) {
	sh := r.shardW(enb)
	if sh == nil {
		return
	}
	sh.advanceSF(rep.SF)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, cs := range rep.Cells {
		if c := sh.cells[cs.Cell]; c != nil {
			c.Stats = cs
		}
	}
	added := 0
	for i := range rep.UEs {
		us := &rep.UEs[i]
		c := sh.cells[us.Cell]
		if c == nil {
			continue
		}
		u := c.UEs[us.RNTI]
		if u == nil {
			u = &UERecord{Config: protocol.UEConfig{RNTI: us.RNTI, Cell: us.Cell}}
			c.UEs[us.RNTI] = u
			added++
		}
		// Deep copy: the reply may be a pooled decode (released and reused
		// after this tick) or an agent's in-place report scratch, so the
		// record must own its SubbandCQI/LCs bytes. CopyFrom reuses the
		// record's existing capacity, keeping steady-state updates
		// allocation-free.
		u.Stats.CopyFrom(us)
		u.UpdatedSF = rep.SF
	}
	if added != 0 {
		sh.ueCount.Add(int64(added))
	}
}

// applyMeasReport attaches an A3 measurement report to the UE's record
// (creating the record if the report outran the stats stream).
func (r *RIB) applyMeasReport(enb lte.ENBID, sf lte.Subframe, rep *protocol.MeasReport) {
	sh := r.shardW(enb)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.cells[rep.Cell]
	if c == nil {
		return
	}
	u := c.UEs[rep.RNTI]
	if u == nil {
		u = &UERecord{Config: protocol.UEConfig{RNTI: rep.RNTI, Cell: rep.Cell, IMSI: rep.IMSI}}
		c.UEs[rep.RNTI] = u
		sh.ueCount.Add(1)
	}
	if u.Config.IMSI == 0 {
		u.Config.IMSI = rep.IMSI
	}
	u.Meas = rep
	u.MeasSF = sf
}

// applyHandoverComplete materializes the target half of a UE migration
// between shards. The source half is NOT touched here: removing the old
// record is the source session's own job (its agent emits a detach event
// when the UE is released), which preserves the sharded updater's
// single-writer-per-shard discipline — a HandoverComplete arrives on the
// *target* agent's session, and letting it write the source shard would
// race the source session's in-order stream.
func (r *RIB) applyHandoverComplete(to lte.ENBID, hc *protocol.HandoverComplete) {
	sh := r.shardW(to)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.cells[hc.Cell]
	if c == nil {
		return
	}
	u := c.UEs[hc.RNTI]
	if u == nil {
		u = &UERecord{Config: protocol.UEConfig{RNTI: hc.RNTI, Cell: hc.Cell, IMSI: hc.IMSI}}
		c.UEs[hc.RNTI] = u
		sh.ueCount.Add(1)
	}
	if u.Config.IMSI == 0 {
		u.Config.IMSI = hc.IMSI
	}
}

func (r *RIB) applyUEEvent(enb lte.ENBID, ev *protocol.UEEvent) {
	sh := r.shardW(enb)
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c := sh.cells[ev.Cell]
	if c == nil {
		return
	}
	switch ev.Type {
	case protocol.UEEventAttach, protocol.UEEventRandomAccess:
		if _, ok := c.UEs[ev.RNTI]; !ok {
			c.UEs[ev.RNTI] = &UERecord{
				Config: protocol.UEConfig{RNTI: ev.RNTI, Cell: ev.Cell},
			}
			sh.ueCount.Add(1)
		}
	case protocol.UEEventDetach:
		if _, ok := c.UEs[ev.RNTI]; ok {
			delete(c.UEs, ev.RNTI)
			sh.ueCount.Add(-1)
		}
	}
}

// --- reader side (applications) ---

// Agents lists the known agents, ordered by id. The read is lock-free: it
// copies the presorted directory of the current topology snapshot.
func (r *RIB) Agents() []lte.ENBID {
	ids := r.topo.Load().ids
	out := make([]lte.ENBID, len(ids))
	copy(out, ids)
	return out
}

// AppendAgents is Agents into caller-owned scratch: a per-tick app passing
// dst[:0] takes the directory snapshot allocation-free at steady state.
func (r *RIB) AppendAgents(dst []lte.ENBID) []lte.ENBID {
	return append(dst, r.topo.Load().ids...)
}

// Connected reports whether an agent session is live (lock-free).
func (r *RIB) Connected(enb lte.ENBID) bool {
	sh := r.shard(enb)
	return sh != nil && sh.connected.Load()
}

// setHealth records the health monitor's grade for an agent (writer side:
// the master's healthTick only).
func (r *RIB) setHealth(enb lte.ENBID, h HealthState) {
	if sh := r.shard(enb); sh != nil {
		sh.health.Store(uint32(h))
	}
}

// HealthOf returns the health monitor's grade for an agent (lock-free):
// HealthDown for unknown or disconnected agents, otherwise the monitor's
// last written state — Healthy until the monitor (if enabled) downgrades.
// Policy code gates on this next to Connected: a Suspect agent is live but
// must not be chosen for new work (handover targets, share pushes).
func (r *RIB) HealthOf(enb lte.ENBID) HealthState {
	sh := r.shard(enb)
	if sh == nil || !sh.connected.Load() {
		return HealthDown
	}
	return HealthState(sh.health.Load())
}

// AgentSF returns the master's view of an agent's current subframe
// (lock-free).
func (r *RIB) AgentSF(enb lte.ENBID) (lte.Subframe, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return 0, false
	}
	return lte.Subframe(sh.lastSF.Load()), true
}

// AgentConfig returns an agent's eNodeB configuration.
func (r *RIB) AgentConfig(enb lte.ENBID) (protocol.ENBConfig, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.ENBConfig{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.config, true
}

// CellStats returns the latest cell statistics.
func (r *RIB) CellStats(enb lte.ENBID, cellID lte.CellID) (protocol.CellStats, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.CellStats{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c := sh.cells[cellID]
	if c == nil {
		return protocol.CellStats{}, false
	}
	return c.Stats, true
}

// UEStats returns the latest stats of one UE. The returned snapshot is a
// deep copy: the updater refills the record's SubbandCQI/LCs in place, so
// handing out aliases would let a later update mutate a reader's snapshot.
func (r *RIB) UEStats(enb lte.ENBID, rnti lte.RNTI) (protocol.UEStats, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.UEStats{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, c := range sh.cells {
		if u, ok := c.UEs[rnti]; ok {
			var out protocol.UEStats
			out.CopyFrom(&u.Stats)
			return out, true
		}
	}
	return protocol.UEStats{}, false
}

// UEConfigOf returns the identity record of one UE (RNTI/cell/IMSI). The
// IMSI is known once any identity-bearing message arrived — a resync
// StateSnapshot, an A3 measurement report or a handover completion;
// periodic statistics alone never carry it.
func (r *RIB) UEConfigOf(enb lte.ENBID, rnti lte.RNTI) (protocol.UEConfig, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return protocol.UEConfig{}, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, c := range sh.cells {
		if u, ok := c.UEs[rnti]; ok {
			return u.Config, true
		}
	}
	return protocol.UEConfig{}, false
}

// UEMeas returns the latest A3 measurement report of one UE and the cycle
// it arrived in (ok=false before the first report). Callers must treat the
// report as read-only.
func (r *RIB) UEMeas(enb lte.ENBID, rnti lte.RNTI) (*protocol.MeasReport, lte.Subframe, bool) {
	sh := r.shard(enb)
	if sh == nil {
		return nil, 0, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, c := range sh.cells {
		if u, ok := c.UEs[rnti]; ok && u.Meas != nil {
			return u.Meas, u.MeasSF, true
		}
	}
	return nil, 0, false
}

// UEsOf returns the latest stats of every UE under an agent, ordered by
// RNTI (the snapshot a centralized scheduler works from). Entries are deep
// copies — see UEStats.
func (r *RIB) UEsOf(enb lte.ENBID) []protocol.UEStats {
	return r.AppendUEsOf(enb, nil)
}

// AppendUEsOf is UEsOf into caller-owned scratch: entries are appended to
// dst, reusing the capacity (including per-entry SubbandCQI/LCs scratch)
// of any elements past dst's length from earlier snapshots. A per-tick app
// passing dst[:0] takes its RIB snapshot allocation-free at steady state.
func (r *RIB) AppendUEsOf(enb lte.ENBID, dst []protocol.UEStats) []protocol.UEStats {
	sh := r.shard(enb)
	if sh == nil {
		return dst
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	start := len(dst)
	for _, c := range sh.cells {
		for _, u := range c.UEs {
			n := len(dst)
			if n < cap(dst) {
				dst = dst[:n+1]
			} else {
				dst = append(dst, protocol.UEStats{})
			}
			dst[n].CopyFrom(&u.Stats)
		}
	}
	out := dst[start:]
	sort.Slice(out, func(i, j int) bool { return out[i].RNTI < out[j].RNTI })
	return dst
}

// UECount returns the number of UEs known under an agent (lock-free).
func (r *RIB) UECount(enb lte.ENBID) int {
	sh := r.shard(enb)
	if sh == nil {
		return 0
	}
	return int(sh.ueCount.Load())
}

// Size approximates the RIB's record count (agents + cells + UEs), used by
// the Fig. 8 memory accounting.
func (r *RIB) Size() int {
	topo := r.topo.Load()
	n := 0
	for _, sh := range topo.shards {
		sh.mu.RLock()
		n++
		n += len(sh.cells)
		n += int(sh.ueCount.Load())
		sh.mu.RUnlock()
	}
	return n
}
