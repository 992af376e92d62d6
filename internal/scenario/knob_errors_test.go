package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// knobCtx places one "key: value" line inside a section of a scenario
// document. tmpl holds a single %s where the line goes; where is the path
// the parser reports for that section; notMap replaces the section's map
// with a scalar and notMapWant is the error that must come back.
type knobCtx struct {
	where      string
	tmpl       string
	notMap     string
	notMapWant string
}

var (
	ctxRun = &knobCtx{"run", "run:\n  %s\n",
		"run: 5\n", "scenario: run section must be a map"}
	ctxTopology = &knobCtx{"topology", "topology:\n  %s\n",
		"topology: 5\n", "scenario: topology section must be a map"}
	ctxGrid = &knobCtx{"topology.grid", "topology:\n  grid:\n    %s\n",
		"topology:\n  grid: 5\n", "scenario: topology.grid must be a map"}
	ctxHoneycomb = &knobCtx{"topology.honeycomb", "topology:\n  honeycomb:\n    %s\n",
		"topology:\n  honeycomb: 5\n", "scenario: topology.honeycomb must be a map"}
	ctxENB = &knobCtx{"topology.enbs[0]", "topology:\n  enbs:\n    - %s\n",
		"topology:\n  enbs:\n    - 5\n", "scenario: topology.enbs[0] must be a map"}
	ctxENBNetem = &knobCtx{"topology.enbs[0].to_master", "topology:\n  enbs:\n    - id: 1\n      to_master:\n        %s\n",
		"topology:\n  enbs:\n    - id: 1\n      to_master: 5\n", "scenario: topology.enbs[0].to_master must be a map"}
	ctxENBNetemAgent = &knobCtx{"topology.enbs[0].to_agent", "topology:\n  enbs:\n    - id: 1\n      to_agent:\n        %s\n",
		"topology:\n  enbs:\n    - id: 1\n      to_agent: [1]\n", "scenario: topology.enbs[0].to_agent must be a map"}
	ctxUE = &knobCtx{"ues[0]", "ues:\n  - %s\n",
		"ues:\n  - 5\n", "scenario: ues[0] must be a map"}
	ctxPlacement = &knobCtx{"ues[0].placement", "ues:\n  - count: 1\n    placement:\n      %s\n",
		"ues:\n  - count: 1\n    placement: 5\n", "scenario: ues[0].placement must be a map"}
	ctxMobility = &knobCtx{"ues[0].mobility", "ues:\n  - count: 1\n    mobility:\n      %s\n",
		"ues:\n  - count: 1\n    mobility: 5\n", "scenario: ues[0].mobility must be a map"}
	ctxChannel = &knobCtx{"ues[0].channel", "ues:\n  - count: 1\n    channel:\n      %s\n",
		"ues:\n  - count: 1\n    channel: 5\n", "scenario: ues[0].channel must be a map"}
	ctxTraffic = &knobCtx{"ues[0].traffic[0]", "ues:\n  - count: 1\n    traffic:\n      - %s\n",
		"ues:\n  - count: 1\n    traffic:\n      - 5\n", "scenario: ues[0].traffic[0] must be a map"}
	ctxUplink = &knobCtx{"ues[0].uplink[0]", "ues:\n  - count: 1\n    uplink:\n      - %s\n",
		"ues:\n  - count: 1\n    uplink:\n      - [1]\n", "scenario: ues[0].uplink[0] must be a map"}
	ctxMaster = &knobCtx{"master", "master:\n  %s\n",
		"master: 5\n", `scenario: master section must be a map or "none"`}
	ctxApp = &knobCtx{"apps[0]", "apps:\n  - %s\n",
		"apps:\n  - 5\n", "scenario: apps[0] must be a map"}
	ctxPlan = &knobCtx{"apps[0].plan[0]", "apps:\n  - kind: ransharing\n    plan:\n      - %s\n",
		"apps:\n  - kind: ransharing\n    plan:\n      - 5\n", "scenario: apps[0].plan[0] must be a map"}
	ctxSlicing = &knobCtx{"slicing[0]", "slicing:\n  - %s\n",
		"slicing:\n  - 5\n", "scenario: slicing[0] must be a map"}
	ctxSlices = &knobCtx{"slices", "slices:\n  %s\n",
		"slices: 5\n", "scenario: slices section must be a map"}
	ctxSpec = &knobCtx{"slices.specs[0]", "slices:\n  specs:\n    - %s\n",
		"slices:\n  specs:\n    - 5\n", "scenario: slices.specs[0] must be a map"}
	ctxFault = &knobCtx{"faults[0]", "faults:\n  - %s\n",
		"faults:\n  - 5\n", "scenario: faults[0] must be a map"}
	ctxFaultNetem = &knobCtx{"faults[0].to_agent", "faults:\n  - at: 1\n    to_agent:\n      %s\n",
		"faults:\n  - at: 1\n    to_agent: 5\n", "scenario: faults[0].to_agent must be a map"}
	ctxFaultNetemMaster = &knobCtx{"faults[0].to_master", "faults:\n  - at: 1\n    to_master:\n      %s\n",
		"faults:\n  - at: 1\n    to_master: 5\n", "scenario: faults[0].to_master must be a map"}
)

// badValues lists, per "must be <phrase>" message, the values that must
// draw it: a range violation where the knob has a range, a wrong scalar
// type, and a non-scalar.
var badValues = map[string][]string{
	"a positive integer":          {"0", "-1", "1.5", "x", "[1]"},
	"a non-negative integer":      {"-1", "1.5", "x", "[1]"},
	"an integer":                  {"1.5", "x", "[1]"},
	"a CQI in [1, 15]":            {"0", "16", "x", "[1]"},
	"a number":                    {"x", "[1]"},
	"a positive number":           {"0", "-1", "x", "[1]"},
	"a non-negative number":       {"-1", "-0.5", "x", "[1]"},
	"a probability in [0, 1]":     {"-0.1", "1.5", "x", "[1]"},
	"a boolean":                   {"maybe", "2", "[1]"},
	"in (0, 1]":                   {"0", "1.5", "x", "[1]"},
	"in [0, 1)":                   {"-0.1", "1", "x", "[1]"},
	"in [1, 9]":                   {"0", "10", "x", "[1]"},
	"an [x, y] pair":              {"5", "[1]", "[1, 2, 3]", "[a, b]"},
	"a sequence":                  {"5"},
	"a float sequence":            {"5", "[]", "[a]"},
	"a map":                       {"5", "[1]"},
	`a positive integer or "all"`: {"0", "x", "ALL", "[1]"},
	"a sequence of [x, y] pairs":  {"5"},
}

// knobCase is one knob of one section. A phrase starting with "." or ":"
// is the whole message tail after the section path; any other phrase
// completes "<where>.<key> must be <phrase>".
type knobCase struct {
	ctx    *knobCtx
	key    string
	phrase string
	bad    []string // nil: badValues[phrase]
}

func netemKnobs(ctx *knobCtx) []knobCase {
	return []knobCase{
		{ctx, "delay_tti", "a non-negative integer", nil},
		{ctx, "jitter_tti", "a non-negative integer", nil},
		{ctx, "loss", "a probability in [0, 1]", nil},
		{ctx, "seed", "an integer", nil},
		{ctx, "burst_loss", "a probability in [0, 1]", nil},
		{ctx, "burst_enter", "a probability in [0, 1]", nil},
		{ctx, "burst_exit", "a probability in [0, 1]", nil},
		{ctx, "dup", "a probability in [0, 1]", nil},
		{ctx, "reorder", "a probability in [0, 1]", nil},
		{ctx, "reorder_tti", "a non-negative integer", nil},
		{ctx, "corrupt", "a probability in [0, 1]", nil},
		{ctx, "stall_tti", "a non-negative integer", nil},
	}
}

func allKnobCases() []knobCase {
	cases := []knobCase{
		{ctxRun, "ttis", "a positive integer", nil},
		{ctxRun, "seconds", "a positive number", nil},
		{ctxRun, "attach_ttis", "a non-negative integer", nil},
		{ctxRun, "workers", "a non-negative integer", nil},
		{ctxRun, "seed", "an integer", nil},
		{ctxRun, "pingpong_window_tti", "a positive integer", nil},
		{ctxRun, "no_fast_forward", "a boolean", nil},

		{ctxTopology, "enbs", "a sequence", nil},

		{ctxGrid, "enbs", "a positive integer", nil},
		{ctxGrid, "cols", "a positive integer", nil},
		{ctxGrid, "spacing_m", "a positive number", nil},
		{ctxGrid, "power_dbm", "a number", nil},
		{ctxGrid, "seed_base", "an integer", nil},

		{ctxHoneycomb, "enbs", "a positive integer", nil},
		{ctxHoneycomb, "rings", "a non-negative integer", nil},
		{ctxHoneycomb, "pitch_m", "a positive number", nil},
		{ctxHoneycomb, "sectors", "a positive integer", nil},
		{ctxHoneycomb, "power_dbm", "a number", nil},
		{ctxHoneycomb, "seed_base", "an integer", nil},

		{ctxENB, "id", "a positive integer", nil},
		{ctxENB, "agent", "a boolean", nil},
		{ctxENB, "seed", "an integer", nil},
		{ctxENB, "cells", "a positive integer", nil},
		{ctxENB, "x", "a number", nil},
		{ctxENB, "y", "a number", nil},
		{ctxENB, "power_dbm", "a number", nil},
		{ctxENB, "policy", "a map", nil},
		{ctxENB, "to_master", ".to_master must be a map", []string{"5"}},
		{ctxENB, "to_agent", ".to_agent must be a map", []string{"[1]"}},

		{ctxUE, "count", "a positive integer", nil},
		{ctxUE, "enb", `a positive integer or "all"`, nil},
		{ctxUE, "cell", "a non-negative integer", nil},
		{ctxUE, "imsi_base", "a positive integer", nil},
		{ctxUE, "group", "a non-negative integer", nil},
		{ctxUE, "placement", ".placement must be a map", []string{"5"}},
		{ctxUE, "mobility", ".mobility must be a map", []string{"[1]"}},
		{ctxUE, "channel", ".channel must be a map", []string{"5"}},
		{ctxUE, "traffic", ".traffic must be a sequence", []string{"5"}},
		{ctxUE, "uplink", ".uplink must be a sequence", []string{"5"}},

		{ctxPlacement, "at", "an [x, y] pair", nil},
		{ctxPlacement, "from", "an [x, y] pair", nil},
		{ctxPlacement, "to", "an [x, y] pair", nil},
		{ctxPlacement, "min", "an [x, y] pair", nil},
		{ctxPlacement, "max", "an [x, y] pair", nil},
		{ctxPlacement, "seed", "an integer", nil},

		{ctxMobility, "path", "a sequence of [x, y] pairs", nil},
		{ctxMobility, "path", ".path must be an [x, y] pair", []string{"[[1, 2, 3]]", "[5]"}},
		{ctxMobility, "speed_mps", "a non-negative number", nil},
		{ctxMobility, "speed_step_mps", "a number", nil},
		{ctxMobility, "ping_pong", "a boolean", nil},
		{ctxMobility, "min", "an [x, y] pair", nil},
		{ctxMobility, "max", "an [x, y] pair", nil},
		{ctxMobility, "seed", "an integer", nil},
		{ctxMobility, "model", `.model: unknown mobility model "teleport"`, []string{"teleport"}},

		{ctxChannel, "cqi", "a CQI in [1, 15]", nil},
		{ctxChannel, "mean", "a number", nil},
		{ctxChannel, "rho", "in [0, 1)", nil},
		{ctxChannel, "sigma", "a non-negative number", nil},
		{ctxChannel, "seed", "an integer", nil},
		{ctxChannel, "a", "a CQI in [1, 15]", nil},
		{ctxChannel, "b", "a CQI in [1, 15]", nil},
		{ctxChannel, "half_period_tti", "a positive integer", nil},
		{ctxChannel, "clear", "a CQI in [1, 15]", nil},
		{ctxChannel, "hit", "a CQI in [1, 15]", nil},
		{ctxChannel, "interferer_enb", "a positive integer", nil},
		{ctxChannel, "interferer_cell", "a non-negative integer", nil},
		{ctxChannel, "model", `.model: unknown channel model "quantum"`, []string{"quantum"}},

		{ctxTraffic, "share", "in (0, 1]", nil},
		{ctxTraffic, "rate_kbps", "a positive number", nil},
		{ctxTraffic, "mean_kbps", "a positive number", nil},
		{ctxTraffic, "packet_bytes", "a positive integer", nil},
		{ctxTraffic, "on_tti", "a positive integer", nil},
		{ctxTraffic, "off_tti", "a positive integer", nil},
		{ctxTraffic, "start_tti", "a non-negative integer", nil},
		{ctxTraffic, "stop_tti", "a non-negative integer", nil},
		{ctxTraffic, "seed", "an integer", nil},
		{ctxTraffic, "kind", `: unknown traffic kind "torrent"`, []string{"torrent"}},
		{ctxUplink, "rate_kbps", "a positive number", nil},

		{ctxMaster, "stats_period_tti", "a non-negative integer", nil},
		{ctxMaster, "sync_period_tti", "a non-negative integer", nil},
		{ctxMaster, "echo_period_tti", "a non-negative integer", nil},
		{ctxMaster, "echo_miss_budget", "a non-negative integer", nil},
		{ctxMaster, "no_resync", "a boolean", nil},
		{ctxMaster, "workers", "a non-negative integer", nil},
		{ctxMaster, "health_period_tti", "a non-negative integer", nil},
		{ctxMaster, "health_suspect_tti", "a non-negative integer", nil},
		{ctxMaster, "health_degraded_tti", "a non-negative integer", nil},
		{ctxMaster, "health_recover_tti", "a non-negative integer", nil},
		{ctxMaster, "cmd_retry_tti", "a non-negative integer", nil},
		{ctxMaster, "cmd_retry_budget", "a non-negative integer", nil},

		{ctxApp, "period_tti", "a positive integer", nil},
		{ctxApp, "policy", `.policy: unknown target policy "greedy"`, []string{"greedy"}},
		{ctxApp, "load_weight", "a non-negative number", nil},
		{ctxApp, "min_margin_db", "a non-negative number", nil},
		{ctxApp, "command_timeout_tti", "a positive integer", nil},
		{ctxApp, "retune_at", "a positive integer", nil},
		{ctxApp, "retune_policy", `.retune_policy: unknown target policy "greedy"`, []string{"greedy"}},
		{ctxApp, "retune_load_weight", "a non-negative number", nil},
		{ctxApp, "enb", "a positive integer", nil},
		{ctxApp, "plan", "a sequence", nil},
		{ctxApp, "macro_enb", "a positive integer", nil},
		{ctxApp, "macro_cell", "a non-negative integer", nil},
		{ctxApp, "small_enbs", "a sequence", nil},
		{ctxApp, "small_enbs", ".small_enbs must hold positive integers", []string{"[0]", "[2, x]", "[[1]]"}},
		{ctxApp, "abs", "in [1, 9]", nil},
		{ctxApp, "optimized", "a boolean", nil},

		{ctxPlan, "at", "a non-negative integer", nil},
		{ctxPlan, "shares", "a float sequence", nil},

		{ctxSlicing, "enb", `a positive integer or "all"`, nil},
		{ctxSlicing, "shares", "a float sequence", nil},
		{ctxSlicing, "work_conserving", "a boolean", nil},
		{ctxSlicing, "scheduler", `.scheduler: unknown scheduler "fifo"`, []string{"fifo"}},

		{ctxSlices, "epoch_ttis", "a positive integer", nil},
		{ctxSlices, "elastic", "a boolean", nil},
		{ctxSlices, "work_conserving", "a boolean", nil},
		{ctxSlices, "scheduler", `.scheduler: unknown scheduler "fifo"`, []string{"fifo"}},
		{ctxSlices, "hysteresis_epochs", "a positive integer", nil},
		{ctxSlices, "degrade_factor", "in (0, 1]", nil},
		{ctxSlices, "specs", "a sequence", nil},

		{ctxSpec, "group", "a non-negative integer", nil},
		{ctxSpec, "weight", "a non-negative number", nil},
		{ctxSpec, "min_throughput_kbps", "a positive number", nil},
		{ctxSpec, "max_queue_ms", "a positive number", nil},
		{ctxSpec, "arrive_at", "a non-negative integer", nil},
		{ctxSpec, "admit_above", "a non-negative number", nil},
		{ctxSpec, "reject_below", "a non-negative number", nil},
		{ctxSpec, "hysteresis_epochs", "a positive integer", nil},

		{ctxFault, "at", "a non-negative integer", nil},
		{ctxFault, "kind", `: unknown fault kind "emp_blast"`, []string{"emp_blast"}},
		{ctxFault, "enb", "a positive integer", nil},
		{ctxFault, "to_master", ".to_master must be a map", []string{"5"}},
		{ctxFault, "to_agent", ".to_agent must be a map", []string{"[1]"}},
	}
	cases = append(cases, netemKnobs(ctxENBNetem)...)
	cases = append(cases, netemKnobs(ctxENBNetemAgent)...)
	cases = append(cases, netemKnobs(ctxFaultNetem)...)
	return append(cases, netemKnobs(ctxFaultNetemMaster)...)
}

// TestKnobErrors pins the exact error text of every knob of every
// section: each gets malformed or out-of-range values and must answer with
// its own message. Each section also has its unknown-knob and
// must-be-a-map messages pinned.
func TestKnobErrors(t *testing.T) {
	ctxs := map[*knobCtx]bool{}
	for _, kc := range allKnobCases() {
		ctxs[kc.ctx] = true
		want := kc.phrase
		if !strings.HasPrefix(want, ".") && !strings.HasPrefix(want, ":") {
			want = "." + kc.key + " must be " + want
		}
		want = "scenario: " + kc.ctx.where + want
		bad := kc.bad
		if bad == nil {
			bad = badValues[kc.phrase]
		}
		if len(bad) == 0 {
			t.Fatalf("%s.%s: no bad values for %q", kc.ctx.where, kc.key, kc.phrase)
		}
		for _, v := range bad {
			doc := fmt.Sprintf(kc.ctx.tmpl, kc.key+": "+v)
			checkParseError(t, doc, want)
		}
	}
	for ctx := range ctxs {
		doc := fmt.Sprintf(ctx.tmpl, "bogus_knob: 1")
		checkParseError(t, doc, fmt.Sprintf("scenario: %s has no knob %q", ctx.where, "bogus_knob"))
		checkParseError(t, ctx.notMap, ctx.notMapWant)
	}
	for _, sec := range []string{"ues", "apps", "slicing", "faults"} {
		checkParseError(t, sec+": 5\n", "scenario: "+sec+" section must be a sequence")
	}
}

func checkParseError(t *testing.T, doc, want string) {
	t.Helper()
	_, err := Parse(doc)
	if err == nil {
		t.Errorf("Parse accepted:\n%s\nwant error %q", doc, want)
		return
	}
	if err.Error() != want {
		t.Errorf("Parse of:\n%s\nerror = %q\n want %q", doc, err.Error(), want)
	}
}
