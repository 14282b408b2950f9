package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/lagen"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}, {0.95, 3.85},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
	var s series
	if s.median() != 0 || s.pct(0.95) != 0 {
		t.Errorf("empty series should read 0")
	}
	for i := 1; i <= 101; i++ {
		s.add(float64(i))
	}
	if s.median() != 51 || s.pct(0.95) != 96 || s.n() != 101 {
		t.Errorf("series 1..101: median %g p95 %g n %d", s.median(), s.pct(0.95), s.n())
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %g, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %g, want 4", got)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {3, -1}} {
		if got := geomean(xs); got != 0 {
			t.Errorf("geomean(%v) = %g, want 0", xs, got)
		}
	}
}

// TestCPUClocks: busy work advances the process and the thread CPU
// clocks by about the wall time it took, and a sleep advances neither.
func TestCPUClocks(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0, t0, w0 := processCPU(), threadCPU(), time.Now()
	x := 1.0
	for time.Since(w0) < 50*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	wall := time.Since(w0)
	dp, dt := processCPU()-p0, threadCPU()-t0
	if dt < wall/4 || dt > wall+5*time.Millisecond || dp < dt {
		t.Errorf("busy %v (x=%g): thread CPU %v, process CPU %v", wall, x, dt, dp)
	}
	t1 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if d := threadCPU() - t1; d > 10*time.Millisecond {
		t.Errorf("a 50ms sleep used %v of thread CPU", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Req: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Req: 1, Name: "c", Start: 15, End: 20},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// request: 100 long, children cover [10,50] and [90,100] = 50.
	want := map[string][3]float64{"request": {1, 100, 50}, "a": {1, 30, 25}, "b": {2, 50, 50}, "c": {1, 5, 5}}
	for name, w := range want {
		lt := got[name]
		if float64(lt.Count) != w[0] || lt.TotalMs*1e6 != w[1] || lt.SelfMs*1e6 != w[2] {
			t.Errorf("%s: count %d total %gns self %gns, want %v", name, lt.Count, lt.TotalMs*1e6, lt.SelfMs*1e6, w)
		}
	}
}

// benchmarkFile mirrors the BENCHMARK.json layout.
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

// TestMetricNames checks BENCHMARK.json against the names and units the
// program reports and against the naming rules.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not valid", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %s: unit %q is not valid", kind, name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s %s: better = %q", kind, name, better)
		}
	}
	var wl []string
	for _, w := range bf.Workloads {
		check("workload", w.Name, "", "")
		wl = append(wl, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", wl, len(workloads))
	}
	var e2e, layer []string
	setup := false
	for _, m := range bf.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better)
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range bf.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better)
		layer = append(layer, m.Name)
	}
	sameNames(t, "end_to_end", e2e, e2eNames)
	sameNames(t, "per_layer", layer, layerNames)
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

func sameNames(t *testing.T, kind string, file, prog []string) {
	t.Helper()
	a := append([]string(nil), file...)
	b := append([]string(nil), prog...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: BENCHMARK.json has %q where the program has %q", kind, a[i], b[i])
		}
	}
}

// TestSeedDeterminism: the same seed gives identical datasets and
// ingest rows; another seed gives different ones.
func TestSeedDeterminism(t *testing.T) {
	tpchSum := func(seed int64) uint64 {
		cat := storage.NewCatalog()
		if _, err := tpch.Populate(cat, 0.002, seed); err != nil {
			t.Fatal(err)
		}
		return catalogChecksum(cat)
	}
	laSum := func(seed int64) uint64 {
		cat := storage.NewCatalog()
		spec, err := lagen.Profile("nlp240", 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lagen.LoadSparse(cat, spec, seed); err != nil {
			t.Fatal(err)
		}
		return catalogChecksum(cat)
	}
	lineitemSum := func(seed int64) uint64 {
		g := newLineitemGen(seed, tpch.SizesAt(tpchSF))
		g.batch(rowsPerBatch)
		return rowsChecksum(g.batch(rowsPerBatch))
	}
	matrixSum := func(seed int64) uint64 {
		spec, _ := lagen.Profile("harbor", laScale)
		g := &matrixGen{r: rand.New(rand.NewSource(seed)), spec: spec}
		return rowsChecksum(g.batch(rowsPerBatch))
	}
	for name, sum := range map[string]func(int64) uint64{
		"tpch dataset": tpchSum, "lagen dataset": laSum,
		"lineitem ingest rows": lineitemSum, "matrix ingest rows": matrixSum,
	} {
		a, b, c := sum(7), sum(7), sum(8)
		if a != b {
			t.Errorf("%s: seed 7 gave checksums %x and %x", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same checksum %x", name, a)
		}
	}
}
