package main

// The simulator workloads: build a scenario, run it to completion through
// scenario.Runtime.Execute, check the outcome, and time it from outside.
// A traced pass adds a benchmark-owned TickerApp on the master (one
// timestamp per master cycle), report-latency sinks on the agents and a
// CPU profile, and alternates with untraced executions so it can state its
// own overhead.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"flexran/internal/controller"
	"flexran/internal/lte"
	"flexran/internal/metrics"
	"flexran/internal/scenario"
)

// simWorkload generates one simulator workload from a seed.
type simWorkload struct {
	name string
	// load returns the scenario for a seed; it is the timed "load" half of
	// set-up (the other half is Build).
	load func(seed int64) (*scenario.Scenario, error)
	// golden names the workload's entry in scenarios/GOLDENS.txt, which
	// seed goldenSeed must reproduce ("" for none).
	golden string
	// queries is how many northbound queries the read phase issues.
	queries int
	// setups is how many set-ups (load + Build) a run times at least; the
	// executions' own set-ups count, and the rest are built and dropped.
	setups int
}

// simIter is one set-up plus execution.
type simIter struct {
	traced         bool
	load, build    time.Duration
	heapMB         float64
	exec, cpu      time.Duration
	ttis           int
	ues, attached  int
	digest         string
	handovers      int
	gcCount        uint32
	gcPause, alloc uint64

	// Traced only.
	attachS, runS, summaryS float64
	stepUs                  []float64
	coreMs, appsMs          []float64
	reports                 *metrics.LoopStats
	msgs, bytes, dropped    uint64
	profile                 []byte
}

// cycleClock is the benchmark's TickerApp: it timestamps every master
// cycle, which splits an opaque Execute into attach, run and summary and
// yields per-step wall times.
type cycleClock struct{ at []time.Time }

func (*cycleClock) Name() string { return "perfbench-clock" }

func (c *cycleClock) OnTick(*controller.Context, lte.Subframe) { c.at = append(c.at, time.Now()) }

// setUp loads and builds the workload from a garbage-collected heap,
// timing both halves.
func setUp(w simWorkload, seed int64) (rt *scenario.Runtime, load, build time.Duration, err error) {
	runtime.GC()
	t0 := time.Now()
	sc, err := w.load(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	rt, err = sc.Build(0)
	if err != nil {
		return nil, 0, 0, err
	}
	return rt, t1.Sub(t0), time.Since(t1), nil
}

func runSimIter(w simWorkload, seed int64, traced bool) (*simIter, *scenario.Result, error) {
	it := &simIter{traced: traced}
	rt, load, build, err := setUp(w, seed)
	if err != nil {
		return nil, nil, err
	}
	sc := rt.Scenario
	it.load, it.build = load, build

	var ms0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	it.heapMB = float64(ms0.HeapAlloc) / 1e6

	var clock *cycleClock
	var prof bytes.Buffer
	if traced {
		clock = &cycleClock{at: make([]time.Time, 0, sc.Run.AttachTTIs+sc.Run.TTIs+1)}
		rt.Sim.Master.Register(clock, math.MinInt32)
		it.reports = &metrics.LoopStats{}
		for _, n := range rt.Sim.Nodes {
			if n.Agent != nil {
				n.Agent.SetLoopStats(it.reports)
			}
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := cpuTime()
	e0 := time.Now()
	res, err := rt.Execute()
	e1 := time.Now()
	it.cpu = cpuTime() - cpu0
	it.exec = e1.Sub(e0)
	if traced {
		pprof.StopCPUProfile()
		it.profile = prof.Bytes()
	}
	if err != nil {
		return nil, nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	it.gcCount = ms1.NumGC - ms0.NumGC
	it.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	it.alloc = ms1.TotalAlloc - ms0.TotalAlloc

	sum := &res.Summary
	it.ttis = sum.AttachTTIs + sum.RunTTIs
	it.ues, it.attached, it.digest, it.handovers = sum.UEs, sum.Attached, sum.Digest, sum.Handovers

	if traced {
		at := clock.at
		if len(at) < 2 || sum.AttachTTIs >= len(at) {
			return nil, nil, fmt.Errorf("cycle clock saw %d cycles for %d attach TTIs", len(at), sum.AttachTTIs)
		}
		it.attachS = at[sum.AttachTTIs].Sub(e0).Seconds()
		it.runS = at[len(at)-1].Sub(at[sum.AttachTTIs]).Seconds()
		it.summaryS = e1.Sub(at[len(at)-1]).Seconds()
		for i := 1; i < len(at); i++ {
			it.stepUs = append(it.stepUs, us(at[i].Sub(at[i-1])))
		}
		core, apps := rt.Sim.Master.CycleTimes()
		it.coreMs, it.appsMs = core.V, apps.V
		for _, n := range rt.Sim.Nodes {
			for _, m := range []*metrics.Meter{n.AgentMeter(), n.MasterMeter()} {
				it.bytes += uint64(m.TotalBytes())
				for _, c := range m.Categories() {
					it.msgs += uint64(m.Messages(c))
				}
			}
			up, down := n.NetemCounters()
			it.dropped += up.Dropped + down.Dropped + up.Corrupted + down.Corrupted
		}
	}
	return it, res, nil
}

// runSim measures a simulator workload for cfg.seconds: repeated set-up +
// execution (alternating untraced and traced when tracing), then one
// northbound read phase over the last run's final RIB.
func runSim(w simWorkload, cfg config) (*outcome, error) {
	o := newOutcome()
	var iters []*simIter
	var last *scenario.Result
	start := time.Now()
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		last = nil // let the previous world be collected before building the next
		it, res, err := runSimIter(w, cfg.seed, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		iters, last = append(iters, it), res
		o.attempted += int64(it.ues)
		o.failed += int64(it.ues - it.attached)
		o.check(it.attached == it.ues, "iteration %d: %d of %d UEs attached", i, it.attached, it.ues)
		fmt.Printf("  %s iter %d traced=%v: setup %.3f s, execute %.3f s (%d TTIs, %.1f TTI/s), cpu %.3f s, %d handovers, digest %s\n",
			w.name, i, traced, (it.load + it.build).Seconds(), it.exec.Seconds(), it.ttis,
			float64(it.ttis)/it.exec.Seconds(), it.cpu.Seconds(), it.handovers, it.digest)
		done := time.Since(start).Seconds() >= cfg.seconds
		if done && (!cfg.trace || len(iters) >= 2) {
			break
		}
	}

	// Determinism and, where committed, the golden digest.
	for i, it := range iters {
		o.check(it.digest == iters[0].digest, "iteration %d digest %s differs from iteration 0's %s", i, it.digest, iters[0].digest)
	}
	if w.golden != "" && cfg.seed == goldenSeed {
		want := goldenDigest(w.golden)
		o.check(iters[0].digest == want, "digest %s, golden %s", iters[0].digest, want)
	}

	nb, err := simReadPhase(last, w.queries, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o.attempted += nb.attempted
	o.failed += nb.failed
	o.problems = append(o.problems, nb.problems...)

	// Top up the executions' set-ups, each from a collected heap (the last
	// world is dead from here on).
	var setups []float64
	for _, it := range iters {
		if !it.traced {
			setups = append(setups, (it.load + it.build).Seconds())
		}
	}
	for len(setups) < w.setups {
		_, load, build, err := setUp(w, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setups = append(setups, (load + build).Seconds())
	}

	pick := func(traced bool, f func(*simIter) float64) float64 {
		var xs []float64
		for _, it := range iters {
			if it.traced == traced {
				xs = append(xs, f(it))
			}
		}
		return median(xs)
	}
	ttiRate := func(it *simIter) float64 { return float64(it.ttis) / it.exec.Seconds() }
	cpuPerTTI := func(it *simIter) float64 { return it.cpu.Seconds() * 1000 / float64(it.ttis) }
	v := o.values
	v["setup_s"] = median(setups)
	v["tti_per_s"] = pick(false, ttiRate)
	v["cpu_s"] = pick(false, func(it *simIter) float64 { return it.cpu.Seconds() })
	v["heap_mb"] = pick(false, func(it *simIter) float64 { return it.heapMB })
	v["rt_cpu_ms_per_tti"] = pick(false, cpuPerTTI)
	v["nb_query_p50_us"] = nb.p50
	v["northbound.queries"] = float64(nb.attempted)
	v["northbound.query_p99_us"] = nb.p99

	if !cfg.trace {
		return o, nil
	}
	v["trace.tti_per_s_delta"] = pick(true, ttiRate) - pick(false, ttiRate)
	v["trace.cpu_ms_per_tti_delta"] = pick(true, cpuPerTTI) - pick(false, cpuPerTTI)
	v["scenario.load_ms"] = pick(true, func(it *simIter) float64 { return float64(it.load) / 1e6 })
	v["scenario.build_ms"] = pick(true, func(it *simIter) float64 { return float64(it.build) / 1e6 })
	v["sim.attach_s"] = pick(true, func(it *simIter) float64 { return it.attachS })
	v["sim.run_s"] = pick(true, func(it *simIter) float64 { return it.runS })
	v["sim.summary_s"] = pick(true, func(it *simIter) float64 { return it.summaryS })
	v["sim.step_p50_us"] = pick(true, func(it *simIter) float64 { return quantile(it.stepUs, 0.5) })
	v["sim.step_p99_us"] = pick(true, func(it *simIter) float64 { return quantile(it.stepUs, 0.99) })
	v["controller.core_ms"] = pick(true, func(it *simIter) float64 { return sum(it.coreMs) })
	v["controller.core_p99_ms"] = pick(true, func(it *simIter) float64 { return quantile(it.coreMs, 0.99) })
	v["controller.apps_ms"] = pick(true, func(it *simIter) float64 { return sum(it.appsMs) })
	// The master's ingest leg is its core (RIB updater) slot; the simulated
	// master records it per cycle in CycleTimes, the same duration a
	// LoopStats sink would observe (attaching one would also start the
	// wall-clock RTT probes and change the simulated traffic).
	v["controller.ingest_p50_us"] = pick(true, func(it *simIter) float64 { return 1000 * quantile(it.coreMs, 0.5) })
	v["controller.ingest_p99_us"] = pick(true, func(it *simIter) float64 { return 1000 * quantile(it.coreMs, 0.99) })
	v["agent.report_p50_us"] = pick(true, func(it *simIter) float64 { return us(it.reports.Report.Quantile(0.5)) })
	v["agent.report_p99_us"] = pick(true, func(it *simIter) float64 { return us(it.reports.Report.Quantile(0.99)) })
	v["agent.reports"] = pick(true, func(it *simIter) float64 { return float64(it.reports.Report.Count()) })
	v["transport.msgs"] = pick(true, func(it *simIter) float64 { return float64(it.msgs) / float64(it.ttis) })
	v["transport.bytes"] = pick(true, func(it *simIter) float64 { return float64(it.bytes) / float64(it.ttis) })
	v["transport.dropped"] = pick(true, func(it *simIter) float64 { return float64(it.dropped) })
	v["runtime.gc_count"] = pick(true, func(it *simIter) float64 { return float64(it.gcCount) })
	v["runtime.gc_pause_ms"] = pick(true, func(it *simIter) float64 { return float64(it.gcPause) / 1e6 })
	v["runtime.alloc_mb"] = pick(true, func(it *simIter) float64 { return float64(it.alloc) / 1e6 })
	// CPU shares over every traced execution's samples together.
	var profiles [][]byte
	for _, it := range iters {
		if it.traced {
			profiles = append(profiles, it.profile)
		}
	}
	shares, err := cpuShares(profiles...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for m, s := range shares {
		v["cpu."+m] = s
	}
	return o, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// scale4096 is the committed 4096-eNodeB world with the run seed replaced.
var scale4096 = simWorkload{
	name: "scale-4096",
	load: func(seed int64) (*scenario.Scenario, error) {
		sc, err := scenario.Load(filepath.Join("scenarios", "scale-4096enb.yaml"))
		if err != nil {
			return nil, err
		}
		sc.Run.Seed = seed
		return sc, nil
	},
	golden:  "scale-4096enb",
	queries: 16000,
	setups:  4,
}

// goldenSeed is the run seed the committed golden digests were made with.
const goldenSeed = 77

// goldenDigest reads one entry of scenarios/GOLDENS.txt; a missing file
// or entry reads as a digest nothing matches.
func goldenDigest(name string) string {
	data, err := os.ReadFile(filepath.Join("scenarios", "GOLDENS.txt"))
	if err != nil {
		return "(no GOLDENS.txt)"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1]
		}
	}
	return "(no golden for " + name + ")"
}
