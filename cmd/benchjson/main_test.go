package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
cpu: Test CPU @ 1.00GHz
BenchmarkFast 	    5000	       100 ns/op	       0 B/op	       0 allocs/op
BenchmarkSlow-2 	    5000	      2000 ns/op	    64 B/op	       3 allocs/op	 12.5 MB/s
PASS
`

func TestParse(t *testing.T) {
	rep := parse([]byte(sample))
	if rep.CPU != "Test CPU @ 1.00GHz" || len(rep.Benchmarks) != 2 {
		t.Fatalf("parse = %+v", rep)
	}
	slow := rep.Benchmarks[1]
	if slow.Name != "BenchmarkSlow" || slow.NsPerOp != 2000 || slow.AllocsPerOp != 3 || slow.Metrics["MB/s"] != 12.5 {
		t.Fatalf("BenchmarkSlow = %+v", slow)
	}
}

func TestMedianPerField(t *testing.T) {
	runs := []Report{
		{CPU: "c", Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 30, AllocsPerOp: 2}}},
		{CPU: "c", Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 10, AllocsPerOp: 1}, {Name: "BenchmarkB", NsPerOp: 7}}},
		{CPU: "c", Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 20, AllocsPerOp: 1}}},
	}
	m := median(runs)
	if len(m.Benchmarks) != 2 || m.Benchmarks[0].Name != "BenchmarkA" || m.Benchmarks[1].Name != "BenchmarkB" {
		t.Fatalf("median order = %+v", m.Benchmarks)
	}
	if a := m.Benchmarks[0]; a.NsPerOp != 20 || a.AllocsPerOp != 1 {
		t.Fatalf("BenchmarkA median = %+v, want 20 ns/op and 1 alloc", a)
	}
}

func TestGates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	baseline := `{"benchmarks": [
		{"name": "BenchmarkA", "ns_per_op": 1, "allocs_per_op": 2},
		{"name": "BenchmarkGone", "ns_per_op": 1, "allocs_per_op": 0}]}`
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 3},
		{Name: "BenchmarkNew", NsPerOp: 1000, AllocsPerOp: 9},
	}}
	got, err := compareAllocs(rep, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !strings.Contains(got[0], "BenchmarkA: allocs/op 3 > baseline 2") ||
		!strings.Contains(got[1], "BenchmarkGone") {
		t.Fatalf("alloc failures = %q", got)
	}

	base := Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsPerOp: 700},   // 1000 > 700*1.25: regression
		{Name: "BenchmarkNew", NsPerOp: 100}, // under -minns: not gated
	}}
	lat := compareLatency(rep, base, dir, 1.25, 500)
	if len(lat) != 1 || !strings.Contains(lat[0], "BenchmarkA: median ns/op 1000 > base 700") {
		t.Fatalf("latency failures = %q", lat)
	}
	base.Benchmarks[0].NsPerOp = 900
	if lat := compareLatency(rep, base, dir, 1.25, 500); len(lat) != 0 {
		t.Fatalf("1000 vs 900 within 1.25x flagged: %q", lat)
	}
}
