// Command perfbench is the repository benchmark: it runs one named
// workload against the FlexRAN reproduction through its public functions,
// checks the outputs, and prints every metric with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set from a separate traced pass (see README.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload scale-4096 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is reserved for confirming a claimed gain: tune and compare
// on other seeds, then repeat the comparison once on this one.
const heldOutSeed = 1_000_003

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"scale-4096", "dense-control", "rt-northbound"}

// endToEnd is the metric set of an untraced run. Every workload reports
// every metric; README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tti_per_s", "1/s"},
	{"cpu_s", "s"},
	{"heap_mb", "MB"},
	{"rt_cpu_ms_per_tti", "ms"},
	{"nb_query_p50_us", "us"},
}

// cpuModules are the cpu.<module> buckets of the traced run's profile, in
// report order (see cpuprof.go for the charging rule).
var cpuModules = []string{
	"enb", "sched", "agent", "controller", "protocol", "wire", "transport",
	"sim", "conc", "ue", "radio", "epc", "scenario", "northbound", "apps",
	"rt", "metrics", "other", "flexran", "bench", "gc", "runtime",
}

// perLayer is the metric set of a traced run. A metric that does not apply
// to a workload reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.load_ms", "ms"},
		{"scenario.build_ms", "ms"},
		{"sim.attach_s", "s"},
		{"sim.run_s", "s"},
		{"sim.summary_s", "s"},
		{"sim.step_p50_us", "us"},
		{"sim.step_p99_us", "us"},
		{"controller.core_ms", "ms"},
		{"controller.core_p99_ms", "ms"},
		{"controller.apps_ms", "ms"},
		{"controller.ingest_p50_us", "us"},
		{"controller.ingest_p99_us", "us"},
		{"controller.step_p50_us", "us"},
		{"controller.step_p99_us", "us"},
		{"controller.rtt_p50_us", "us"},
		{"agent.report_p50_us", "us"},
		{"agent.report_p99_us", "us"},
		{"agent.reports", "count"},
		{"agent.step_p50_us", "us"},
		{"transport.msgs", "1/tti"},
		{"transport.bytes", "B/tti"},
		{"transport.dropped", "count"},
		{"northbound.queries", "count"},
		{"northbound.query_p99_us", "us"},
		{"northbound.watch_events", "count"},
		{"northbound.watch_resyncs", "count"},
		{"rt.miss_rate", "ratio"},
		{"rt.misses", "count"},
		{"rt.ticks", "count"},
		{"rt.teardown_errors", "count"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "%"})
	}
	return append(defs,
		metricDef{"runtime.gc_count", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"trace.tti_per_s_delta", "1/s"},
		metricDef{"trace.cpu_ms_per_tti_delta", "ms"},
	)
}()

// outcome is what one workload run produced: operation counts, the
// correctness checks that failed, and metric values by name.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
}

func runWorkload(name string, cfg config) (*outcome, error) {
	switch name {
	case "scale-4096":
		return runSim(scale4096, cfg)
	case "dense-control":
		return runSim(denseControl, cfg)
	case "rt-northbound":
		return runRT(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", name, strings.Join(workloadNames, ", "))
}

// result turns an outcome into the final JSON object, keeping exactly the
// metric set the mode promises. prefix namespaces the names (-workload all).
func (o *outcome) result(trace bool, prefix string) resultJSON {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := resultJSON{
		Correct:   len(o.problems) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		r.Metrics[prefix+d.name] = metricJSON{Value: o.values[d.name], Unit: d.unit}
	}
	return r
}

func printHuman(name string, o *outcome, res resultJSON) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted=%d failed=%d correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "workload seed; inputs are a pure function of it")
	seconds := flag.Float64("seconds", 20, "measured duration per workload")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *workload == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// Pin GOMAXPROCS to the CPUs this process may run on (nproc), whatever
	// the environment says; the engine's worker count stays at its default.
	runtime.GOMAXPROCS(runtime.NumCPU())
	env, _ := json.Marshal(environment())
	fmt.Printf("env %s\n", env)

	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	names := []string{*workload}
	prefix := func(string) string { return "" }
	if *workload == "all" {
		names = workloadNames
		prefix = func(n string) string { return n + "." }
	}
	final := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, name := range names {
		start := time.Now()
		o, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res := o.result(cfg.trace, prefix(name))
		printHuman(name, o, res)
		fmt.Printf("  (%s took %.1f s)\n", name, time.Since(start).Seconds())
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}
