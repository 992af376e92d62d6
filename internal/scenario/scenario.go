// Package scenario is the declarative workload layer of the platform: it
// turns a yamlite document — topology, UE population, traffic mix, apps,
// slicing shares and a fault script — into a fully wired sim.Sim with a
// master controller and northbound applications, runs it, and reduces the
// end state to a deterministic Summary plus a stable FNV-1a digest.
//
// The paper's pitch is programmability: one platform, many RAN control
// scenarios. Before this package every workload was a hand-coded Go main;
// with it a scenario is data. The digest is the regression currency: the
// TTI engine guarantees bit-for-bit identical worlds for every worker-pool
// size, so each scenario file ships with a golden digest and any
// behavioural drift in sim/sched/mobility/resilience code shows up as a
// digest mismatch in CI — no new Go test required.
//
// Document layout (all sections except run/topology are optional):
//
//	name: highway-pingpong
//	description: walkers bouncing between two cells
//	run:
//	  ttis: 20000          # TTIs after the attach phase
//	  attach_ttis: 2000    # attach-phase budget
//	  seed: 1              # base seed mixed into derived seeds
//	  workers: 0           # engine pool size (CLI -workers overrides)
//	topology:
//	  enbs:
//	    - id: 1
//	      x: 0             # with power_dbm, adds a radio-map site
//	      power_dbm: 43
//	  # or generated:
//	  #   honeycomb:
//	  #     rings: 3
//	  #     pitch_m: 500
//	ues:
//	  - count: 3
//	    enb: 1
//	    imsi_base: 100
//	    mobility:
//	      model: waypoint
//	      path: [[150, 0], [850, 0]]
//	      speed_mps: 30
//	    traffic:
//	      - kind: cbr
//	        share: 1.0
//	        rate_kbps: 500
//	apps:
//	  - kind: mobility
//	    policy: strongest
//	slices:
//	  elastic: true        # false = static weight-proportional plan
//	  epoch_ttis: 200      # broker control period
//	  specs:
//	    - name: gold
//	      group: 0
//	      weight: 2
//	      min_throughput_kbps: 4000
//	    - name: bronze
//	      group: 1
//	      arrive_at: 4000
//	      admit_above: 0.6
//	      reject_below: 0.3
//	faults:
//	  - at: 500
//	    kind: link_cut
//	    enb: 1
package scenario

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"flexran/internal/lte"
	"flexran/internal/slice"
	"flexran/internal/yamlite"
)

// Defaults applied while parsing.
const (
	// DefaultAttachTTIs bounds the attach phase when run.attach_ttis is
	// absent.
	DefaultAttachTTIs = 2000
	// DefaultPingPongWindowTTI is the window within which a UE returning
	// to the eNodeB it just left counts as a ping-pong handover.
	DefaultPingPongWindowTTI = 1000
)

// RunSpec is the "run:" section.
type RunSpec struct {
	// TTIs is the measured run length after the attach phase.
	TTIs int
	// AttachTTIs bounds the attach phase (0 skips it entirely).
	AttachTTIs int
	// Workers is the engine pool size; the CLI -workers flag overrides.
	Workers int
	// Seed is mixed into every derived per-UE seed.
	Seed int64
	// PingPongWindowTTI classifies return handovers as ping-pongs.
	PingPongWindowTTI int
	// NoFastForward disables the idle-cell fast-forward engine, forcing
	// every eNodeB to step every TTI. Digests are identical either way
	// (the fast-forward contract is bit-exactness); the knob exists for
	// A/B verification and for measuring the skip machinery's benefit.
	NoFastForward bool
}

// NetemDecl impairs one direction of a control channel. The gray knobs
// (burst loss, duplication, reordering, corruption, stall) map onto
// transport.Netem's Gilbert–Elliott and framing-corruption machinery; all
// default to zero, which draws nothing from the random stream and so
// leaves legacy digests untouched.
type NetemDecl struct {
	DelayTTI  int
	JitterTTI int
	Loss      float64
	Seed      int64

	BurstLoss  float64
	BurstEnter float64
	BurstExit  float64
	Dup        float64
	Reorder    float64
	ReorderTTI int
	Corrupt    float64
	StallTTI   int
}

// ENBDecl declares one eNodeB (or a template repeated Count times by the
// topology grid generator).
type ENBDecl struct {
	ID    lte.ENBID
	Agent bool
	Seed  int64
	// Cells is the number of default 10 MHz cells (ids 0..Cells-1).
	Cells int
	// X/Y/PowerDBm place a radio-map site per cell when HasSite.
	X, Y     float64
	PowerDBm float64
	HasSite  bool
	ToMaster NetemDecl
	ToAgent  NetemDecl
	// Policy is a raw policy-reconfiguration document applied to the
	// agent before the attach phase (e.g. rrc handover knobs).
	Policy *yamlite.Node
}

// PointDecl is a scenario-space position in meters.
type PointDecl struct{ X, Y float64 }

// PlacementDecl positions the UEs of a group.
type PlacementDecl struct {
	Kind string // "at", "line", "box"
	At   PointDecl
	From PointDecl
	To   PointDecl
	Min  PointDecl
	Max  PointDecl
	Seed int64
}

// MobilityDecl selects a motion model for a UE group.
type MobilityDecl struct {
	Model        string // "static", "waypoint", "random_waypoint"
	Path         []PointDecl
	SpeedMps     float64
	SpeedStepMps float64 // per-UE speed increment (spreads crossings)
	PingPong     bool
	Min, Max     PointDecl
	Seed         int64
}

// ChannelDecl selects the channel model of a UE group.
type ChannelDecl struct {
	Model string // "auto", "geo", "fixed", "fading", "squarewave", "interference_switched"
	CQI   int64  // fixed
	// fading
	Mean, Rho, Sigma float64
	Seed             int64
	// squarewave
	A, B          int64
	HalfPeriodTTI int64
	// interference_switched
	Clear, Hit     int64
	InterfererENB  lte.ENBID
	InterfererCell lte.CellID
}

// TrafficDecl is one component of a group's traffic mix.
type TrafficDecl struct {
	Kind        string // "cbr", "poisson", "onoff", "full_buffer"
	Share       float64
	RateKbps    float64
	MeanKbps    float64
	PacketBytes int
	OnTTI       int
	OffTTI      int
	StartTTI    int64
	StopTTI     int64
	Seed        int64
}

// UEGroup declares a homogeneous slice of the UE population.
type UEGroup struct {
	Count    int
	ENB      lte.ENBID
	AllENBs  bool // replicate the group on every eNodeB
	Cell     lte.CellID
	IMSIBase uint64
	Group    int
	Place    *PlacementDecl
	Mobility *MobilityDecl
	Channel  ChannelDecl
	DL       []TrafficDecl
	UL       []TrafficDecl
}

// MasterDecl is the "master:" section. A nil *MasterDecl on the Scenario
// means "master: none" (standalone eNodeBs).
type MasterDecl struct {
	StatsPeriodTTI int
	SyncPeriodTTI  int
	EchoPeriodTTI  int
	EchoMissBudget int
	NoResync       bool
	Workers        int

	// Health monitor and reliable-delivery knobs (all 0 = disabled,
	// matching controller.DefaultOptions so legacy digests hold).
	HealthPeriodTTI   int
	HealthSuspectTTI  int
	HealthDegradedTTI int
	HealthRecoverTTI  int
	CmdRetryTTI       int
	CmdRetryBudget    int
}

// AppDecl registers one northbound application.
type AppDecl struct {
	Kind string // "monitor", "mobility", "eicic", "ransharing"

	// monitor
	PeriodTTI int
	// mobility
	Policy            string // "strongest", "load_balanced"
	LoadWeight        float64
	MinMarginDB       float64
	CommandTimeoutTTI int
	// mobility runtime retune: at RetuneAt TTIs into the measured run the
	// target policy is swapped to RetunePolicy via the registry's Retune
	// path (0 = never retune).
	RetuneAt         int64
	RetunePolicy     string
	RetuneLoadWeight float64
	// ransharing
	ENB  lte.ENBID
	Plan []ShareChangeDecl
	// eicic
	MacroENB  lte.ENBID
	MacroCell lte.CellID
	SmallENBs []lte.ENBID
	ABS       int
	Optimized bool
}

// ShareChangeDecl is one scheduled slice-share reallocation (TTIs are
// offsets from the start of the measured run, like fault TTIs).
type ShareChangeDecl struct {
	At     int64
	Shares []float64
}

// SlicesDecl is the "slices:" section: declarative slice specs handed to
// the elastic slice broker (internal/apps/broker). The builder installs
// the agent-side slicing scheduler on every agent eNodeB — initial shares
// split weight-proportionally between the founding (arrive_at 0) specs —
// and Execute registers a broker armed at the end of the attach phase.
// The section is mutually exclusive with the static "slicing:" section.
type SlicesDecl struct {
	// EpochTTIs is the broker's control period (0 = broker default).
	EpochTTIs int
	// Elastic selects the closed loop; false freezes the static
	// weight-proportional plan (the fig_slicing ablation arm).
	Elastic bool
	// WorkConserving and Scheduler configure the agent-side slicer.
	WorkConserving bool
	Scheduler      string // inner per-group scheduler: "rr" (default), "pf"
	// HysteresisEpochs and DegradeFactor override broker defaults (0 keeps
	// them).
	HysteresisEpochs int
	DegradeFactor    float64
	// Specs is the declarative slice set.
	Specs []slice.Spec
}

// SliceDecl installs the slicing scheduler on one (or all) eNodeBs.
type SliceDecl struct {
	ENB            lte.ENBID // 0 = every agent eNodeB
	All            bool
	Shares         []float64
	WorkConserving bool
	Scheduler      string // inner per-group scheduler: "rr" (default), "pf"
}

// FaultDecl schedules one failure-injection event, At TTIs after the
// attach phase completes.
type FaultDecl struct {
	At   int64
	Kind string // "link_cut", "link_restore", "agent_restart", "netem_set", "agent_stall", "agent_resume"
	ENB  lte.ENBID
	// ToMaster/ToAgent carry the replacement per-direction impairments of
	// a netem_set fault; nil leaves that direction unchanged.
	ToMaster *NetemDecl
	ToAgent  *NetemDecl
}

// Scenario is a parsed, validated document. It is purely declarative:
// Build constructs fresh runtime state (generators, channels, apps) on
// every call, so one Scenario can be run many times — including at
// different worker counts — with identical results.
type Scenario struct {
	Name        string
	Description string
	Run         RunSpec
	ENBs        []ENBDecl
	UEs         []UEGroup
	Master      *MasterDecl
	Apps        []AppDecl
	Slices      []SliceDecl
	Broker      *SlicesDecl
	Faults      []FaultDecl
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(string(data))
}

// LoadNamed finds "<name>.yaml" in the repository's scenarios/ library,
// searching upward from the working directory so examples run from the
// repo root, their own directory, or a test's temp cwd.
func LoadNamed(name string) (*Scenario, error) {
	rel := filepath.Join("scenarios", name+".yaml")
	for _, up := range []string{".", "..", filepath.Join("..", "..")} {
		path := filepath.Join(up, rel)
		if _, err := os.Stat(path); err == nil {
			return Load(path)
		}
	}
	return nil, fmt.Errorf("scenario: %s not found (run from the repository tree)", rel)
}

// Size limits on what Parse expands from a single number. They sit far
// above the scenario library's largest world (scale-4096enb: 4096 sites,
// 102,408 UEs) and keep a hostile document from making Parse allocate or
// loop without bound.
const (
	// maxENBs bounds the sites of a generated topology.
	maxENBs = 1 << 16
	// maxRings is the largest honeycomb ring count whose 1+3R(R+1) sites
	// fit in maxENBs.
	maxRings = 147
	// maxUEs bounds the UE population summed over all groups.
	maxUEs = 1 << 20
)

// Parse parses and validates a scenario document.
func Parse(doc string) (*Scenario, error) {
	root, err := yamlite.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if root.Kind != yamlite.KindMap {
		return nil, fmt.Errorf("scenario: document root must be a map")
	}
	sc := &Scenario{
		Run: RunSpec{
			AttachTTIs:        DefaultAttachTTIs,
			PingPongWindowTTI: DefaultPingPongWindowTTI,
		},
		Master: &MasterDecl{
			StatsPeriodTTI: 1,
			SyncPeriodTTI:  1,
			EchoPeriodTTI:  20,
			EchoMissBudget: 3,
		},
	}
	for _, key := range root.Keys() {
		val := root.Get(key)
		var err error
		switch key {
		case "name":
			sc.Name = val.Str()
		case "description":
			sc.Description = val.Str()
		case "run":
			err = sc.parseRun(val)
		case "topology":
			err = sc.parseTopology(val)
		case "ues":
			err = sc.parseUEs(val)
		case "master":
			err = sc.parseMaster(val)
		case "apps":
			err = sc.parseApps(val)
		case "slicing":
			err = sc.parseSlicing(val)
		case "slices":
			err = sc.parseSlices(val)
		case "faults":
			err = sc.parseFaults(val)
		default:
			err = fmt.Errorf("scenario: unknown top-level key %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// ---------------------------------------------------------------------------
// Section parsers. Each lists its knobs for decodeMap, which rejects
// unknown keys so typos surface as errors instead of silently ignored
// knobs; what follows a decodeMap call is the section's required and
// cross-field checks.

func (sc *Scenario) parseRun(n *yamlite.Node) error {
	if err := section(n, "run", yamlite.KindMap); err != nil {
		return err
	}
	r := &sc.Run
	return decodeMap(n, "run", []knob{
		{"ttis", &r.TTIs, posInt},
		{"seconds", func(f float64) { r.TTIs = int(f * lte.TTIsPerSecond) }, posNum},
		{"attach_ttis", &r.AttachTTIs, nonNeg},
		{"workers", &r.Workers, nonNeg},
		{"seed", &r.Seed, anyInt},
		{"pingpong_window_tti", &r.PingPongWindowTTI, posInt},
		{"no_fast_forward", &r.NoFastForward, boolean},
	})
}

func (sc *Scenario) parseTopology(n *yamlite.Node) error {
	if err := section(n, "topology", yamlite.KindMap); err != nil {
		return err
	}
	return decodeMap(n, "topology", []knob{
		{"grid", sc.parseGrid, custom},
		{"honeycomb", sc.parseHoneycomb, custom},
		{"enbs", func(v *yamlite.Node) error {
			return items(v, "topology.enbs", func(it *yamlite.Node, where string) error {
				d, err := parseENB(it, where)
				if err != nil {
					return err
				}
				sc.ENBs = append(sc.ENBs, d)
				return nil
			})
		}, custom},
	})
}

// parseGrid expands "topology.grid" into a row-major lattice of
// single-cell agent eNodeBs with ids 1..N, each carrying one site.
func (sc *Scenario) parseGrid(n *yamlite.Node) error {
	count, cols := 0, 0
	spacing, power := 500.0, 43.0
	var seedBase int64 = 1
	if err := decodeMap(n, "topology.grid", []knob{
		{"enbs", &count, posInt},
		{"cols", &cols, posInt},
		{"spacing_m", &spacing, posNum},
		{"power_dbm", &power, anyNum},
		{"seed_base", &seedBase, anyInt},
	}); err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("scenario: topology.grid.enbs is required")
	}
	if count > maxENBs {
		return fmt.Errorf("scenario: topology.grid.enbs must be at most %d", maxENBs)
	}
	if cols == 0 {
		cols = int(math.Ceil(math.Sqrt(float64(count))))
	}
	for i := 0; i < count; i++ {
		sc.ENBs = append(sc.ENBs, ENBDecl{
			ID:    lte.ENBID(i + 1),
			Agent: true,
			Seed:  seedBase + int64(i),
			Cells: 1,
			X:     float64(i%cols) * spacing,
			Y:     float64(i/cols) * spacing,

			PowerDBm: power,
			HasSite:  true,
		})
	}
	return nil
}

// parseHoneycomb expands "topology.honeycomb" into a hexagonal cellular
// deployment: sites on a triangular lattice spiralling outward from a
// centre eNodeB, the classic honeycomb layout of LTE planning studies.
// Exactly one of `enbs` (site count, spiral truncated mid-ring) or
// `rings` (complete rings R, yielding 1+3R(R+1) sites) selects the size.
func (sc *Scenario) parseHoneycomb(n *yamlite.Node) error {
	count, rings := 0, -1
	pitch, power := 500.0, 43.0
	sectors := 1
	var seedBase int64 = 1
	if err := decodeMap(n, "topology.honeycomb", []knob{
		{"enbs", &count, posInt},
		{"rings", &rings, nonNeg},
		{"pitch_m", &pitch, posNum},
		{"sectors", &sectors, posInt},
		{"power_dbm", &power, anyNum},
		{"seed_base", &seedBase, anyInt},
	}); err != nil {
		return err
	}
	if (count == 0) == (rings < 0) {
		return fmt.Errorf("scenario: topology.honeycomb needs exactly one of enbs or rings")
	}
	if rings > maxRings {
		return fmt.Errorf("scenario: topology.honeycomb.rings must be at most %d", maxRings)
	}
	if count > maxENBs {
		return fmt.Errorf("scenario: topology.honeycomb.enbs must be at most %d", maxENBs)
	}
	if count == 0 {
		count = 1 + 3*rings*(rings+1)
	}
	for i, ax := range hexSpiral(count) {
		// Axial-to-plane: unit hexagonal lattice scaled by the site pitch.
		x := pitch * (float64(ax.q) + float64(ax.r)/2)
		y := pitch * float64(ax.r) * math.Sqrt(3) / 2
		sc.ENBs = append(sc.ENBs, ENBDecl{
			ID:    lte.ENBID(i + 1),
			Agent: true,
			Seed:  seedBase + int64(i),
			Cells: sectors,
			X:     x,
			Y:     y,

			PowerDBm: power,
			HasSite:  true,
		})
	}
	return nil
}

// hexAxial is a cell of the hexagonal lattice in axial coordinates.
type hexAxial struct{ q, r int }

// hexSpiral enumerates n lattice cells spiralling outward from the
// origin: the centre, then ring 1, ring 2, ... Each ring k starts at
// axial (k, -k) and walks its six sides counter-clockwise, k steps per
// side, emitting each cell before stepping. The order is a pure function
// of n, so site ids (and everything seeded from them) are deterministic.
func hexSpiral(n int) []hexAxial {
	dirs := [6]hexAxial{{0, 1}, {-1, 1}, {-1, 0}, {0, -1}, {1, -1}, {1, 0}}
	out := make([]hexAxial, 0, n)
	out = append(out, hexAxial{0, 0})
	for k := 1; len(out) < n; k++ {
		cur := hexAxial{k, -k}
		for _, d := range dirs {
			for step := 0; step < k; step++ {
				if len(out) == n {
					return out
				}
				out = append(out, cur)
				cur = hexAxial{cur.q + d.q, cur.r + d.r}
			}
		}
	}
	return out[:n]
}

func parseENB(n *yamlite.Node, where string) (ENBDecl, error) {
	d := ENBDecl{Agent: true, Cells: 1}
	err := decodeMap(n, where, []knob{
		{"id", &d.ID, posInt},
		{"agent", &d.Agent, boolean},
		{"seed", &d.Seed, anyInt},
		{"cells", &d.Cells, posInt},
		{"x", &d.X, anyNum},
		{"y", &d.Y, anyNum},
		{"power_dbm", func(f float64) { d.PowerDBm, d.HasSite = f, true }, anyNum},
		{"to_master", netemInto(&d.ToMaster, where, "to_master"), custom},
		{"to_agent", netemInto(&d.ToAgent, where, "to_agent"), custom},
		{"policy", &d.Policy, aMap},
	})
	if err == nil && d.ID == 0 {
		err = fmt.Errorf("scenario: %s.id is required", where)
	}
	return d, err
}

// netemInto is the hook of the netem knob key under where.
func netemInto(d *NetemDecl, where, key string) func(*yamlite.Node) error {
	return func(n *yamlite.Node) error {
		return decodeMap(n, where+"."+key, []knob{
			{"delay_tti", &d.DelayTTI, nonNeg},
			{"jitter_tti", &d.JitterTTI, nonNeg},
			{"loss", &d.Loss, prob},
			{"seed", &d.Seed, anyInt},
			{"burst_loss", &d.BurstLoss, prob},
			{"burst_enter", &d.BurstEnter, prob},
			{"burst_exit", &d.BurstExit, prob},
			{"dup", &d.Dup, prob},
			{"reorder", &d.Reorder, prob},
			{"reorder_tti", &d.ReorderTTI, nonNeg},
			{"corrupt", &d.Corrupt, prob},
			{"stall_tti", &d.StallTTI, nonNeg},
		})
	}
}

func (sc *Scenario) parseUEs(n *yamlite.Node) error {
	if err := section(n, "ues", yamlite.KindSeq); err != nil {
		return err
	}
	return items(n, "ues", func(it *yamlite.Node, where string) error {
		g, err := parseUEGroup(it, where)
		if err != nil {
			return err
		}
		sc.UEs = append(sc.UEs, g)
		return nil
	})
}

func parseUEGroup(n *yamlite.Node, where string) (UEGroup, error) {
	g := UEGroup{Count: 1}
	err := decodeMap(n, where, []knob{
		{"count", &g.Count, posInt},
		{"enb", enbOrAll(&g.ENB, &g.AllENBs, where), custom},
		{"cell", &g.Cell, nonNeg},
		{"imsi_base", &g.IMSIBase, posInt},
		{"group", &g.Group, nonNeg},
		{"placement", func(v *yamlite.Node) (err error) {
			g.Place, err = parsePlacement(v, where+".placement")
			return err
		}, custom},
		{"mobility", func(v *yamlite.Node) (err error) {
			g.Mobility, err = parseMobility(v, where+".mobility")
			return err
		}, custom},
		{"channel", func(v *yamlite.Node) (err error) {
			g.Channel, err = parseChannel(v, where+".channel")
			return err
		}, custom},
		{"traffic", func(v *yamlite.Node) (err error) {
			g.DL, err = parseTrafficMix(v, where+".traffic")
			return err
		}, custom},
		{"uplink", func(v *yamlite.Node) (err error) {
			g.UL, err = parseTrafficMix(v, where+".uplink")
			return err
		}, custom},
	})
	switch {
	case err != nil:
	case g.IMSIBase == 0:
		err = fmt.Errorf("scenario: %s.imsi_base is required", where)
	case g.ENB == 0 && !g.AllENBs:
		err = fmt.Errorf("scenario: %s.enb is required", where)
	}
	return g, err
}

func parsePlacement(n *yamlite.Node, where string) (*PlacementDecl, error) {
	p := &PlacementDecl{}
	err := decodeMap(n, where, []knob{
		{"at", func(pt PointDecl) { p.Kind, p.At = "at", pt }, point},
		{"from", func(pt PointDecl) { p.Kind, p.From = "line", pt }, point},
		{"to", func(pt PointDecl) { p.Kind, p.To = "line", pt }, point},
		{"min", func(pt PointDecl) { p.Kind, p.Min = "box", pt }, point},
		{"max", func(pt PointDecl) { p.Kind, p.Max = "box", pt }, point},
		{"seed", &p.Seed, anyInt},
	})
	if err == nil && p.Kind == "" {
		err = fmt.Errorf("scenario: %s needs at/from+to/min+max", where)
	}
	return p, err
}

func parseMobility(n *yamlite.Node, where string) (*MobilityDecl, error) {
	m := &MobilityDecl{}
	if err := decodeMap(n, where, []knob{
		{"model", &m.Model, text},
		{"path", func(v *yamlite.Node) error {
			if v.Kind != yamlite.KindSeq {
				return fmt.Errorf("scenario: %s.path must be a sequence of [x, y] pairs", where)
			}
			for _, it := range v.Items() {
				pt, ok := asPoint(it)
				if !ok {
					return badKnob(where, "path", point)
				}
				m.Path = append(m.Path, pt)
			}
			return nil
		}, custom},
		{"speed_mps", &m.SpeedMps, nonNegNum},
		{"speed_step_mps", &m.SpeedStepMps, anyNum},
		{"ping_pong", &m.PingPong, boolean},
		{"min", &m.Min, point},
		{"max", &m.Max, point},
		{"seed", &m.Seed, anyInt},
	}); err != nil {
		return m, err
	}
	switch m.Model {
	case "static", "waypoint", "random_waypoint":
	case "":
		return m, fmt.Errorf("scenario: %s.model is required", where)
	default:
		return m, fmt.Errorf("scenario: %s.model: unknown mobility model %q", where, m.Model)
	}
	if m.Model == "waypoint" && len(m.Path) < 2 {
		return m, fmt.Errorf("scenario: %s.path needs at least 2 waypoints", where)
	}
	return m, nil
}

func parseChannel(n *yamlite.Node, where string) (ChannelDecl, error) {
	c := ChannelDecl{Model: "auto", Rho: 0.99, Sigma: 1.5}
	if err := decodeMap(n, where, []knob{
		{"model", &c.Model, text},
		{"cqi", &c.CQI, cqi},
		{"mean", &c.Mean, anyNum},
		{"rho", &c.Rho, rule{lo: 0, hi: 1, openHi: true, want: "in [0, 1)"}},
		{"sigma", &c.Sigma, nonNegNum},
		{"seed", &c.Seed, anyInt},
		{"a", &c.A, cqi},
		{"b", &c.B, cqi},
		{"half_period_tti", &c.HalfPeriodTTI, posInt},
		{"clear", &c.Clear, cqi},
		{"hit", &c.Hit, cqi},
		{"interferer_enb", &c.InterfererENB, posInt},
		{"interferer_cell", &c.InterfererCell, nonNeg},
	}); err != nil {
		return c, err
	}
	switch c.Model {
	case "auto", "geo":
	case "fixed":
		if c.CQI == 0 {
			return c, fmt.Errorf("scenario: %s.cqi is required for the fixed model", where)
		}
	case "fading":
		if c.Mean == 0 {
			return c, fmt.Errorf("scenario: %s.mean is required for the fading model", where)
		}
	case "squarewave":
		if c.A == 0 || c.B == 0 || c.HalfPeriodTTI == 0 {
			return c, fmt.Errorf("scenario: %s needs a, b and half_period_tti for the squarewave model", where)
		}
	case "interference_switched":
		if c.Clear == 0 || c.Hit == 0 || c.InterfererENB == 0 {
			return c, fmt.Errorf("scenario: %s needs clear, hit and interferer_enb for the interference_switched model", where)
		}
	default:
		return c, fmt.Errorf("scenario: %s.model: unknown channel model %q", where, c.Model)
	}
	return c, nil
}

func parseTrafficMix(n *yamlite.Node, where string) ([]TrafficDecl, error) {
	var mix []TrafficDecl
	if err := items(n, where, func(it *yamlite.Node, where string) error {
		d, err := parseTraffic(it, where)
		if err != nil {
			return err
		}
		mix = append(mix, d)
		return nil
	}); err != nil {
		return nil, err
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("scenario: %s must not be empty", where)
	}
	if len(mix) == 1 && mix[0].Share == 0 {
		mix[0].Share = 1
	}
	sum := 0.0
	for _, d := range mix {
		sum += d.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("scenario: %s: shares sum to %.3f, want 1.0", where, sum)
	}
	return mix, nil
}

func parseTraffic(n *yamlite.Node, where string) (TrafficDecl, error) {
	var d TrafficDecl
	if err := decodeMap(n, where, []knob{
		{"kind", &d.Kind, text},
		{"share", &d.Share, fraction},
		{"rate_kbps", &d.RateKbps, posNum},
		{"mean_kbps", &d.MeanKbps, posNum},
		{"packet_bytes", &d.PacketBytes, posInt},
		{"on_tti", &d.OnTTI, posInt},
		{"off_tti", &d.OffTTI, posInt},
		{"start_tti", &d.StartTTI, nonNeg},
		{"stop_tti", &d.StopTTI, nonNeg},
		{"seed", &d.Seed, anyInt},
	}); err != nil {
		return d, err
	}
	switch d.Kind {
	case "cbr":
		if d.RateKbps == 0 {
			return d, fmt.Errorf("scenario: %s.rate_kbps is required for cbr", where)
		}
	case "poisson":
		if d.MeanKbps == 0 {
			return d, fmt.Errorf("scenario: %s.mean_kbps is required for poisson", where)
		}
	case "onoff":
		if d.RateKbps == 0 || d.OnTTI == 0 || d.OffTTI == 0 {
			return d, fmt.Errorf("scenario: %s needs rate_kbps, on_tti and off_tti for onoff", where)
		}
	case "full_buffer":
	case "":
		return d, fmt.Errorf("scenario: %s.kind is required", where)
	default:
		return d, fmt.Errorf("scenario: %s: unknown traffic kind %q", where, d.Kind)
	}
	return d, nil
}

func (sc *Scenario) parseMaster(n *yamlite.Node) error {
	if n != nil && n.Kind == yamlite.KindScalar && n.Str() == "none" {
		sc.Master = nil
		return nil
	}
	if n == nil || n.Kind != yamlite.KindMap {
		return fmt.Errorf("scenario: master section must be a map or \"none\"")
	}
	m := sc.Master
	return decodeMap(n, "master", []knob{
		{"stats_period_tti", &m.StatsPeriodTTI, nonNeg},
		{"sync_period_tti", &m.SyncPeriodTTI, nonNeg},
		{"echo_period_tti", &m.EchoPeriodTTI, nonNeg},
		{"echo_miss_budget", &m.EchoMissBudget, nonNeg},
		{"no_resync", &m.NoResync, boolean},
		{"workers", &m.Workers, nonNeg},
		{"health_period_tti", &m.HealthPeriodTTI, nonNeg},
		{"health_suspect_tti", &m.HealthSuspectTTI, nonNeg},
		{"health_degraded_tti", &m.HealthDegradedTTI, nonNeg},
		{"health_recover_tti", &m.HealthRecoverTTI, nonNeg},
		{"cmd_retry_tti", &m.CmdRetryTTI, nonNeg},
		{"cmd_retry_budget", &m.CmdRetryBudget, nonNeg},
	})
}

func (sc *Scenario) parseApps(n *yamlite.Node) error {
	if err := section(n, "apps", yamlite.KindSeq); err != nil {
		return err
	}
	return items(n, "apps", func(it *yamlite.Node, where string) error {
		a, err := parseApp(it, where)
		if err != nil {
			return err
		}
		sc.Apps = append(sc.Apps, a)
		return nil
	})
}

func parseApp(n *yamlite.Node, where string) (AppDecl, error) {
	a := AppDecl{
		PeriodTTI:         100,
		Policy:            "strongest",
		CommandTimeoutTTI: 200,
		ABS:               4,
	}
	if err := decodeMap(n, where, []knob{
		{"kind", &a.Kind, text},
		{"period_tti", &a.PeriodTTI, posInt},
		{"policy", oneOf(&a.Policy, where+".policy", "target policy", "strongest", "load_balanced"), custom},
		{"load_weight", &a.LoadWeight, nonNegNum},
		{"min_margin_db", &a.MinMarginDB, nonNegNum},
		{"command_timeout_tti", &a.CommandTimeoutTTI, posInt},
		{"retune_at", &a.RetuneAt, posInt},
		{"retune_policy", oneOf(&a.RetunePolicy, where+".retune_policy", "target policy", "strongest", "load_balanced"), custom},
		{"retune_load_weight", &a.RetuneLoadWeight, nonNegNum},
		{"enb", &a.ENB, posInt},
		{"plan", func(v *yamlite.Node) error {
			return items(v, where+".plan", func(it *yamlite.Node, where string) error {
				ch, err := parseShareChange(it, where)
				if err != nil {
					return err
				}
				a.Plan = append(a.Plan, ch)
				return nil
			})
		}, custom},
		{"macro_enb", &a.MacroENB, posInt},
		{"macro_cell", &a.MacroCell, nonNeg},
		{"small_enbs", func(v *yamlite.Node) error {
			return items(v, where+".small_enbs", func(it *yamlite.Node, _ string) error {
				id, ok := posInt.asInt(it)
				if !ok {
					return fmt.Errorf("scenario: %s.small_enbs must hold positive integers", where)
				}
				a.SmallENBs = append(a.SmallENBs, lte.ENBID(id))
				return nil
			})
		}, custom},
		{"abs", &a.ABS, rule{lo: 1, hi: 9, want: "in [1, 9]"}},
		{"optimized", &a.Optimized, boolean},
	}); err != nil {
		return a, err
	}
	if a.Kind != "mobility" && (a.RetuneAt > 0 || a.RetunePolicy != "") {
		return a, fmt.Errorf("scenario: %s: retune knobs apply to mobility apps only", where)
	}
	if a.RetunePolicy != "" && a.RetuneAt == 0 {
		return a, fmt.Errorf("scenario: %s.retune_at is required with retune_policy", where)
	}
	if a.RetuneAt > 0 && a.RetunePolicy == "" {
		return a, fmt.Errorf("scenario: %s.retune_policy is required with retune_at", where)
	}
	switch a.Kind {
	case "monitor", "mobility":
	case "ransharing":
		if a.ENB == 0 {
			return a, fmt.Errorf("scenario: %s.enb is required for ransharing", where)
		}
	case "eicic":
		if a.MacroENB == 0 || len(a.SmallENBs) == 0 {
			return a, fmt.Errorf("scenario: %s needs macro_enb and small_enbs for eicic", where)
		}
	case "":
		return a, fmt.Errorf("scenario: %s.kind is required", where)
	default:
		return a, fmt.Errorf("scenario: %s: unknown app kind %q", where, a.Kind)
	}
	return a, nil
}

func parseShareChange(n *yamlite.Node, where string) (ShareChangeDecl, error) {
	var ch ShareChangeDecl
	err := decodeMap(n, where, []knob{
		{"at", &ch.At, nonNeg},
		{"shares", &ch.Shares, floats},
	})
	if err == nil && ch.Shares == nil {
		err = fmt.Errorf("scenario: %s.shares is required", where)
	}
	return ch, err
}

func (sc *Scenario) parseSlicing(n *yamlite.Node) error {
	if err := section(n, "slicing", yamlite.KindSeq); err != nil {
		return err
	}
	return items(n, "slicing", func(it *yamlite.Node, where string) error {
		d := SliceDecl{Scheduler: "rr"}
		if err := decodeMap(it, where, []knob{
			{"enb", enbOrAll(&d.ENB, &d.All, where), custom},
			{"shares", &d.Shares, floats},
			{"work_conserving", &d.WorkConserving, boolean},
			{"scheduler", oneOf(&d.Scheduler, where+".scheduler", "scheduler", "rr", "pf"), custom},
		}); err != nil {
			return err
		}
		if d.Shares == nil {
			return fmt.Errorf("scenario: %s.shares is required", where)
		}
		if d.ENB == 0 && !d.All {
			return fmt.Errorf("scenario: %s.enb is required (an id or \"all\")", where)
		}
		sum := 0.0
		for _, f := range d.Shares {
			if f < 0 || f > 1 {
				return fmt.Errorf("scenario: %s.shares must hold fractions in [0, 1]", where)
			}
			sum += f
		}
		if sum > 1+1e-9 {
			return fmt.Errorf("scenario: %s.shares sum to %.3f, want <= 1.0", where, sum)
		}
		sc.Slices = append(sc.Slices, d)
		return nil
	})
}

func (sc *Scenario) parseSlices(n *yamlite.Node) error {
	if err := section(n, "slices", yamlite.KindMap); err != nil {
		return err
	}
	d := &SlicesDecl{Elastic: true, Scheduler: "rr"}
	if err := decodeMap(n, "slices", []knob{
		{"epoch_ttis", &d.EpochTTIs, posInt},
		{"elastic", &d.Elastic, boolean},
		{"work_conserving", &d.WorkConserving, boolean},
		{"scheduler", oneOf(&d.Scheduler, "slices.scheduler", "scheduler", "rr", "pf"), custom},
		{"hysteresis_epochs", &d.HysteresisEpochs, posInt},
		{"degrade_factor", &d.DegradeFactor, fraction},
		{"specs", func(v *yamlite.Node) error {
			return items(v, "slices.specs", func(it *yamlite.Node, where string) error {
				sp, err := parseSliceSpec(it, where)
				if err != nil {
					return err
				}
				d.Specs = append(d.Specs, sp)
				return nil
			})
		}, custom},
	}); err != nil {
		return err
	}
	if len(d.Specs) == 0 {
		return fmt.Errorf("scenario: slices.specs must declare at least one slice")
	}
	sc.Broker = d
	return nil
}

func parseSliceSpec(n *yamlite.Node, where string) (slice.Spec, error) {
	var sp slice.Spec
	if err := decodeMap(n, where, []knob{
		{"name", &sp.Name, text},
		{"group", &sp.Group, nonNeg},
		{"weight", &sp.Weight, nonNegNum},
		{"min_throughput_kbps", &sp.SLA.MinThroughputKbps, posNum},
		{"max_queue_ms", &sp.SLA.MaxQueueMs, posNum},
		{"arrive_at", &sp.ArriveAt, nonNeg},
		{"admit_above", &sp.Admission.AdmitAbove, nonNegNum},
		{"reject_below", &sp.Admission.RejectBelow, nonNegNum},
		{"hysteresis_epochs", &sp.HysteresisEpochs, posInt},
	}); err != nil {
		return sp, err
	}
	if err := sp.Validate(); err != nil {
		return sp, fmt.Errorf("scenario: %s: %v", where, err)
	}
	return sp, nil
}

func (sc *Scenario) parseFaults(n *yamlite.Node) error {
	if err := section(n, "faults", yamlite.KindSeq); err != nil {
		return err
	}
	return items(n, "faults", func(it *yamlite.Node, where string) error {
		var d FaultDecl
		if err := decodeMap(it, where, []knob{
			{"at", &d.At, nonNeg},
			{"kind", oneOf(&d.Kind, where, "fault kind",
				"link_cut", "link_restore", "agent_restart", "netem_set", "agent_stall", "agent_resume"), custom},
			{"enb", &d.ENB, posInt},
			{"to_master", func(v *yamlite.Node) error {
				d.ToMaster = &NetemDecl{}
				return netemInto(d.ToMaster, where, "to_master")(v)
			}, custom},
			{"to_agent", func(v *yamlite.Node) error {
				d.ToAgent = &NetemDecl{}
				return netemInto(d.ToAgent, where, "to_agent")(v)
			}, custom},
		}); err != nil {
			return err
		}
		if d.Kind == "" {
			return fmt.Errorf("scenario: %s.kind is required", where)
		}
		if d.ENB == 0 {
			return fmt.Errorf("scenario: %s.enb is required", where)
		}
		sc.Faults = append(sc.Faults, d)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Cross-section validation.

func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("scenario: name is required")
	}
	if sc.Run.TTIs == 0 {
		return fmt.Errorf("scenario: run.ttis is required")
	}
	if len(sc.ENBs) == 0 {
		return fmt.Errorf("scenario: topology declares no eNodeBs")
	}
	byID := map[lte.ENBID]*ENBDecl{}
	for i := range sc.ENBs {
		d := &sc.ENBs[i]
		if byID[d.ID] != nil {
			return fmt.Errorf("scenario: duplicate eNodeB id %d", d.ID)
		}
		byID[d.ID] = d
	}
	hasMap := false
	for i := range sc.ENBs {
		if sc.ENBs[i].HasSite {
			hasMap = true
		}
	}
	imsis := map[uint64]bool{}
	population := 0
	for i := range sc.UEs {
		g := &sc.UEs[i]
		where := fmt.Sprintf("ues[%d]", i)
		targets := []*ENBDecl{byID[g.ENB]}
		if g.AllENBs {
			targets = targets[:0]
			for j := range sc.ENBs {
				targets = append(targets, &sc.ENBs[j])
			}
		} else if targets[0] == nil {
			return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, g.ENB)
		}
		for _, t := range targets {
			if int(g.Cell) >= t.Cells {
				return fmt.Errorf("scenario: %s.cell: eNodeB %d has no cell %d", where, t.ID, g.Cell)
			}
		}
		if g.Count > (maxUEs-population)/len(targets) {
			return fmt.Errorf("scenario: %s: the UE population exceeds the limit of %d", where, maxUEs)
		}
		n := g.Count * len(targets)
		population += n
		for k := 0; k < n; k++ {
			imsi := g.IMSIBase + uint64(k)
			if imsis[imsi] {
				return fmt.Errorf("scenario: %s: IMSI %d collides with another group", where, imsi)
			}
			imsis[imsi] = true
		}
		// Resolve "auto" the same way the builder will: geo with a radio
		// map, fixed without one — so every geo-channel constraint below
		// covers both spellings.
		model := g.Channel.Model
		if model == "auto" || model == "" {
			if hasMap {
				model = "geo"
			} else {
				model = "fixed"
			}
		}
		switch model {
		case "geo":
			if !hasMap {
				return fmt.Errorf("scenario: %s: the geo channel model needs radio-map sites (power_dbm on eNodeBs)", where)
			}
			// A siteless serving eNodeB yields CQI 0 forever — the UE
			// would silently never attach.
			for _, t := range targets {
				if !t.HasSite {
					return fmt.Errorf("scenario: %s: eNodeB %d has no radio-map site for the geo channel", where, t.ID)
				}
			}
			if g.Mobility == nil && g.Place == nil {
				return fmt.Errorf("scenario: %s needs a placement or mobility model for the geo channel", where)
			}
		case "interference_switched":
			itf := byID[g.Channel.InterfererENB]
			if itf == nil {
				return fmt.Errorf("scenario: %s.channel.interferer_enb: unknown eNodeB %d", where, g.Channel.InterfererENB)
			}
			if int(g.Channel.InterfererCell) >= itf.Cells {
				return fmt.Errorf("scenario: %s.channel.interferer_cell: eNodeB %d has no cell %d", where, g.Channel.InterfererENB, g.Channel.InterfererCell)
			}
		}
		if g.Mobility != nil && g.Mobility.Model != "static" && model == "fixed" {
			return fmt.Errorf("scenario: %s: a moving UE needs a geo channel, not %q", where, model)
		}
		if len(g.DL) == 0 && len(g.UL) == 0 {
			return fmt.Errorf("scenario: %s declares no traffic", where)
		}
	}
	for i, a := range sc.Apps {
		where := fmt.Sprintf("apps[%d]", i)
		if sc.Master == nil {
			return fmt.Errorf("scenario: %s: apps need a master (remove \"master: none\")", where)
		}
		switch a.Kind {
		case "ransharing":
			if byID[a.ENB] == nil {
				return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, a.ENB)
			}
		case "eicic":
			if byID[a.MacroENB] == nil {
				return fmt.Errorf("scenario: %s.macro_enb: unknown eNodeB %d", where, a.MacroENB)
			}
			for _, id := range a.SmallENBs {
				if byID[id] == nil {
					return fmt.Errorf("scenario: %s.small_enbs: unknown eNodeB %d", where, id)
				}
			}
		}
	}
	for i, d := range sc.Slices {
		where := fmt.Sprintf("slicing[%d]", i)
		if !d.All {
			t := byID[d.ENB]
			if t == nil {
				return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, d.ENB)
			}
			if !t.Agent {
				return fmt.Errorf("scenario: %s: eNodeB %d has no agent to slice", where, d.ENB)
			}
		}
	}
	if b := sc.Broker; b != nil {
		if sc.Master == nil {
			return fmt.Errorf("scenario: slices need a master (remove \"master: none\")")
		}
		if len(sc.Slices) > 0 {
			return fmt.Errorf("scenario: slices and slicing sections are mutually exclusive (the broker owns the slicer)")
		}
		hasAgent := false
		for i := range sc.ENBs {
			if sc.ENBs[i].Agent {
				hasAgent = true
			}
		}
		if !hasAgent {
			return fmt.Errorf("scenario: slices need at least one agent eNodeB")
		}
		names := map[string]bool{}
		groups := map[int]string{}
		for i, sp := range b.Specs {
			where := fmt.Sprintf("slices.specs[%d]", i)
			if names[sp.Name] {
				return fmt.Errorf("scenario: %s: duplicate slice name %q", where, sp.Name)
			}
			names[sp.Name] = true
			if other, ok := groups[sp.Group]; ok {
				return fmt.Errorf("scenario: %s: slices %q and %q share group %d", where, other, sp.Name, sp.Group)
			}
			groups[sp.Group] = sp.Name
			if sp.ArriveAt >= int64(sc.Run.TTIs) {
				return fmt.Errorf("scenario: %s: arrive_at TTI %d beyond run length %d", where, sp.ArriveAt, sc.Run.TTIs)
			}
		}
	}
	stalled := map[lte.ENBID]bool{}
	for i, f := range sc.Faults {
		where := fmt.Sprintf("faults[%d]", i)
		if sc.Master == nil {
			return fmt.Errorf("scenario: %s: faults need a master (remove \"master: none\")", where)
		}
		t := byID[f.ENB]
		if t == nil {
			return fmt.Errorf("scenario: %s.enb: unknown eNodeB %d", where, f.ENB)
		}
		if !t.Agent {
			return fmt.Errorf("scenario: %s: eNodeB %d has no agent to fault", where, f.ENB)
		}
		if f.At >= int64(sc.Run.TTIs) {
			return fmt.Errorf("scenario: %s: at TTI %d beyond run length %d", where, f.At, sc.Run.TTIs)
		}
		switch f.Kind {
		case "netem_set":
			if f.ToMaster == nil && f.ToAgent == nil {
				return fmt.Errorf("scenario: %s: netem_set needs a to_master or to_agent direction", where)
			}
		case "agent_stall":
			stalled[f.ENB] = true
		case "agent_resume":
			if !stalled[f.ENB] {
				return fmt.Errorf("scenario: %s: agent_resume for eNodeB %d without a preceding agent_stall", where, f.ENB)
			}
			stalled[f.ENB] = false
		case "agent_restart":
			stalled[f.ENB] = false
		}
	}
	// eNodeBs must be declared in a stable id order for deterministic
	// engine sharding regardless of map iteration anywhere upstream.
	sorted := sort.SliceIsSorted(sc.ENBs, func(i, j int) bool { return sc.ENBs[i].ID < sc.ENBs[j].ID })
	if !sorted {
		sort.SliceStable(sc.ENBs, func(i, j int) bool { return sc.ENBs[i].ID < sc.ENBs[j].ID })
	}
	return nil
}
