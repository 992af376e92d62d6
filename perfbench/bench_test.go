package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"flexran/internal/scenario"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 77, heldOutSeed} {
		if a, b := denseDoc(seed), denseDoc(seed); a != b {
			t.Fatalf("denseDoc(%d) differs between calls", seed)
		}
		if a, b := rtGenerate(seed), rtGenerate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("rtGenerate(%d) differs between calls", seed)
		}
		for _, w := range []simWorkload{scale4096, denseControl} {
			a, err := w.load(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			b, err := w.load(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: two loads of seed %d differ", w.name, seed)
			}
			if a.Run.Seed != seed {
				t.Fatalf("%s: run.seed is %d, want the argument %d", w.name, a.Run.Seed, seed)
			}
		}
	}
	if denseDoc(1) == denseDoc(2) {
		t.Fatal("denseDoc ignores its seed")
	}
	if reflect.DeepEqual(rtGenerate(1), rtGenerate(2)) {
		t.Fatal("rtGenerate ignores its seed")
	}
}

// Every seed offers the same total load: only the layout changes.
func TestGeneratedLoadIsSeedInvariant(t *testing.T) {
	total := func(seed int64) (cqi float64) {
		for _, u := range rtGenerate(seed).ues {
			cqi += u.meanCQI
		}
		return cqi
	}
	if c1, c2 := total(1), total(heldOutSeed); c1 != c2 {
		t.Fatalf("rt-northbound channel means differ by seed: %v vs %v", c1, c2)
	}
	sc, err := scenario.Parse(denseDoc(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sc.ENBs), denseENBs; got != want {
		t.Fatalf("dense-control has %d eNodeBs, want %d", got, want)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64)", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadNames {
		checkName(w)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			checkName(d.name)
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: unit %q", d.name, d.unit)
			}
		}
	}

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", layer, perLayer)
	}
}

func TestChargeModule(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "flexran/internal/enb.(*ENB).Step", "flexran/internal/sim.(*Sim).Step"}, "enb"},
		{[]string{"flexran/internal/apps/broker.(*Broker).OnTick", "flexran/internal/controller.(*Master).Tick"}, "apps"},
		{[]string{"flexran/internal/lte.Foo", "flexran/internal/sim.(*Sim).Step"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "flexran/internal/wire.Foo"}, "gc"},
		{[]string{"syscall.Syscall", "flexran.RunAgentLoopRT"}, "flexran"},
		{[]string{"net/http.(*Client).Do", "main.(*nbClient).query"}, "bench"},
		{[]string{"runtime.futex", "runtime.schedule"}, "runtime"},
	} {
		if got := chargeModule(tc.stack); got != tc.want {
			t.Errorf("chargeModule(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

var sink uint64

func burn(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestCPUSharesSumTo100(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes(), buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, m := range cpuModules {
		s, ok := shares[m]
		if !ok {
			t.Errorf("no share for %s", m)
		}
		total += s
	}
	if total < 99.999 || total > 100.001 {
		t.Fatalf("shares sum to %v%%, want 100", total)
	}
	if shares["bench"] < 50 {
		t.Fatalf("a profile of the benchmark's own loop charges %v%% to cpu.bench", shares["bench"])
	}
}

// smoke runs one workload briefly and checks its result is complete.
func smoke(t *testing.T, name string, seed int64, trace bool) {
	o, err := runWorkload(name, config{seed: seed, seconds: 0.1, trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	res := o.result(trace, "")
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d problems=%v", name, res.Correct, res.Attempted, res.Failed, o.problems)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	if trace {
		total := 0.0
		for _, m := range cpuModules {
			total += res.Metrics["cpu."+m].Value
		}
		if total < 99.999 || total > 100.001 {
			t.Fatalf("%s: cpu shares sum to %v%%", name, total)
		}
		return
	}
	for _, d := range endToEnd {
		if v := res.Metrics[d.name].Value; !(v > 0) {
			t.Errorf("%s: %s = %v, want > 0", name, d.name, v)
		}
	}
}

func TestSmokeScale4096Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("a full 4096-eNodeB run")
	}
	smoke(t, "scale-4096", 77, false)
}

func TestSmokeDenseControl(t *testing.T) {
	smoke(t, "dense-control", 3, false)
	smoke(t, "dense-control", 3, true)
}

func TestSmokeRTNorthbound(t *testing.T) {
	if testing.Short() {
		t.Skip("a wall-clock deployment")
	}
	smoke(t, "rt-northbound", 3, true)
}
