// Command benchjson runs the repository benchmark suite (`go test -bench
// -benchmem`) and emits a machine-readable JSON summary — ns/op, B/op,
// allocs/op and any custom ReportMetric units per benchmark — so CI can
// archive the perf trajectory as an artifact and diff allocation and
// latency numbers mechanically.
//
// Usage:
//
//	go run ./cmd/benchjson -bench 'Pooled|ConnSend|StatsReply' \
//	    -benchtime 1000x -out BENCH.json [-pkg .] [-cpu 1] [-count 5] \
//	    [-compare BENCH_BASELINE.json] [-base ../base-checkout] [-maxslow 1.25]
//
// The benchmarks run at GOMAXPROCS -cpu (default 1: allocation counts of
// the parallel engine follow GOMAXPROCS, so the committed baseline is a
// -cpu 1 measurement). The test binary is built once and run -count
// times; the JSON holds each benchmark's median, and records GOMAXPROCS,
// the Go version and the CPU model.
//
// Two gates, each optional:
//
//   - -compare: allocs/op must not exceed the committed baseline, and
//     every baseline benchmark must still run. Allocation counts do not
//     depend on the host, so this rule is exact.
//   - -base: ns/op is compared against another checkout (the merge-base
//     in CI) on the same host in the same job. Its test binary is built
//     too, the two binaries alternate -count times, and a benchmark fails
//     when its median exceeds the base median * maxslow. Base medians under
//     -minns are timer noise at fixed iteration counts and are not gated.
//
// The tool shells out to the local go toolchain; everything else is stdlib.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed output line, or the median of several.
type Result struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp / AllocsPerOp come from -benchmem.
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds every other reported unit (MB/s, handovers/ksf, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	Package    string   `json:"package"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Runs       int      `json:"runs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// suite is one tree's compiled benchmark binary and the runs it produced.
type suite struct {
	dir  string // package directory the binary runs in
	bin  string
	runs []Report
}

func main() {
	var (
		bench     = flag.String("bench", ".", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "", "value for go test -benchtime (e.g. 1000x, 1s)")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "BENCH.json", "output JSON path")
		count     = flag.Int("count", 1, "runs per tree; the JSON and the gates use medians")
		cpu       = flag.Int("cpu", 1, "GOMAXPROCS for the benchmarks (go test -cpu)")
		compare   = flag.String("compare", "", "baseline JSON whose allocs/op must not be exceeded")
		base      = flag.String("base", "", "checkout to A/B ns/op against, run interleaved on this host")
		maxSlow   = flag.Float64("maxslow", 1.25, "ns/op regression factor tolerated vs the -base median")
		minNs     = flag.Float64("minns", 500, "latency gate floor: base medians under this many ns/op are timer noise and only alloc-checked")
	)
	flag.Parse()
	if *count < 1 || *cpu < 1 {
		fail(fmt.Errorf("-count and -cpu must be at least 1"))
	}

	tmp, err := os.MkdirTemp("", "benchjson")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)
	head, err := build(".", *pkg, filepath.Join(tmp, "head.test"))
	if err != nil {
		fail(err)
	}
	suites := []*suite{head}
	if *base != "" {
		b, err := build(*base, *pkg, filepath.Join(tmp, "base.test"))
		if err != nil {
			fail(err)
		}
		suites = append(suites, b)
	}
	args := []string{"-test.run", "^$", "-test.bench", *bench, "-test.benchmem",
		"-test.cpu", strconv.Itoa(*cpu), "-test.count", "1"}
	if *benchtime != "" {
		args = append(args, "-test.benchtime", *benchtime)
	}
	// Alternate the trees run by run, so drift on the host (thermal,
	// noisy neighbours) lands on both sides alike.
	for i := 0; i < *count; i++ {
		for _, s := range suites {
			if err := s.run(args); err != nil {
				fail(err)
			}
		}
	}

	rep := median(head.runs)
	rep.Package = *pkg
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = *cpu
	rep.Runs = *count
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s (median of %d, GOMAXPROCS %d)\n",
		len(rep.Benchmarks), *out, *count, *cpu)

	var failures []string
	if *compare != "" {
		f, err := compareAllocs(rep, *compare)
		if err != nil {
			fail(err)
		}
		failures = append(failures, f...)
	}
	if *base != "" {
		failures = append(failures, compareLatency(rep, median(suites[1].runs), *base, *maxSlow, *minNs)...)
	}
	if len(failures) > 0 {
		fail(fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  ")))
	}
	if *compare != "" || *base != "" {
		fmt.Printf("benchjson: no regressions across %d benchmarks\n", len(rep.Benchmarks))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}

// build compiles the benchmark binary of pkg inside the tree at root.
func build(root, pkg, bin string) (*suite, error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "test", "-c", "-o", abs, pkg)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building %s in %s: %w", pkg, root, err)
	}
	return &suite{dir: filepath.Join(root, pkg), bin: abs}, nil
}

// run executes the binary once and records the parsed report.
func (s *suite) run(args []string) error {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		os.Stdout.Write(raw)
		return fmt.Errorf("%s %s: %w", s.bin, strings.Join(args, " "), err)
	}
	s.runs = append(s.runs, parse(raw))
	return nil
}

// median folds several runs into one report: per benchmark, the median of
// every numeric field across the runs it appeared in, in first-run order.
func median(runs []Report) Report {
	rep := runs[0]
	rep.Benchmarks = nil
	byName := map[string][]Result{}
	var order []string
	for _, r := range runs {
		for _, b := range r.Benchmarks {
			if _, seen := byName[b.Name]; !seen {
				order = append(order, b.Name)
			}
			byName[b.Name] = append(byName[b.Name], b)
		}
	}
	for _, name := range order {
		rs := byName[name]
		field := func(get func(Result) float64) float64 {
			v := make([]float64, len(rs))
			for i, r := range rs {
				v[i] = get(r)
			}
			slices.Sort(v)
			if n := len(v); n%2 == 0 {
				return (v[n/2-1] + v[n/2]) / 2
			}
			return v[len(v)/2]
		}
		m := Result{
			Name:        name,
			Iterations:  rs[0].Iterations,
			NsPerOp:     field(func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  field(func(r Result) float64 { return r.BytesPerOp }),
			AllocsPerOp: field(func(r Result) float64 { return r.AllocsPerOp }),
		}
		for unit := range rs[0].Metrics {
			if m.Metrics == nil {
				m.Metrics = map[string]float64{}
			}
			m.Metrics[unit] = field(func(r Result) float64 { return r.Metrics[unit] })
		}
		rep.Benchmarks = append(rep.Benchmarks, m)
	}
	return rep
}

// compareAllocs holds the fresh report to a committed baseline: allocs/op
// must not increase (allocation counts are deterministic at a fixed
// GOMAXPROCS). Benchmarks present only in the new run are reported but
// pass (additions are fine); baseline benchmarks missing from the run
// fail, so the gate cannot silently narrow.
func compareAllocs(rep Report, path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	fresh := make(map[string]bool, len(rep.Benchmarks))

	var failures []string
	fmt.Printf("benchjson: allocs/op against %s\n", path)
	fmt.Printf("%-34s %9s %9s\n", "benchmark", "allocs", "base")
	for _, r := range rep.Benchmarks {
		fresh[r.Name] = true
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("%-34s %9.0f %9s  (new)\n", r.Name, r.AllocsPerOp, "-")
			continue
		}
		verdict := ""
		if r.AllocsPerOp > b.AllocsPerOp {
			verdict = "ALLOC REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %.0f > baseline %.0f", r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
		fmt.Printf("%-34s %9.0f %9.0f  %s\n", r.Name, r.AllocsPerOp, b.AllocsPerOp, verdict)
	}
	for _, b := range base.Benchmarks {
		if !fresh[b.Name] {
			failures = append(failures, fmt.Sprintf("%s: present in %s but not in this run", b.Name, path))
		}
	}
	return failures, nil
}

// compareLatency holds the fresh medians to the base checkout's medians
// from the same interleaved job: ns/op must stay under base*maxSlow.
// Benchmarks the base does not have are new and pass.
func compareLatency(rep, base Report, dir string, maxSlow, minNs float64) []string {
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var failures []string
	fmt.Printf("benchjson: median ns/op against %s (budget %.2fx)\n", dir, maxSlow)
	fmt.Printf("%-34s %14s %14s %7s\n", "benchmark", "ns/op", "base ns/op", "ratio")
	for _, r := range rep.Benchmarks {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("%-34s %14.0f %14s %7s  (new)\n", r.Name, r.NsPerOp, "-", "-")
			continue
		}
		verdict := ""
		if b.NsPerOp >= minNs && r.NsPerOp > b.NsPerOp*maxSlow {
			verdict = "LATENCY REGRESSION"
			failures = append(failures, fmt.Sprintf(
				"%s: median ns/op %.0f > base %.0f * %.2f", r.Name, r.NsPerOp, b.NsPerOp, maxSlow))
		}
		fmt.Printf("%-34s %14.0f %14.0f %7.2f  %s\n", r.Name, r.NsPerOp, b.NsPerOp, r.NsPerOp/b.NsPerOp, verdict)
	}
	return failures
}

// parse extracts benchmark lines from `go test -bench` output. A line is
//
//	BenchmarkName-8   3000   17160 ns/op   103.28 MB/s   3 B/op   0 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs.
func parse(raw []byte) Report {
	var rep Report
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{
			Name:       strings.SplitN(fields[0], "-", 2)[0],
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	return rep
}
