// Command lhperf is the repository's benchmark: it runs one workload
// against the engine's public entry points, checks every answer, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// no tracing; with -trace 1 they are the per-layer metrics, taken from
// spans the benchmark records around each call into a layer and from
// the counters the engine already exports. Both runs also write a
// detail file (sample counts, per-query numbers and, when traced, the
// spans) under .bench_build/lhperf/.
//
// Usage (from the repository root; lhperf/run.sh builds and runs it):
//
//	lhperf -workload bi_tpch|la_kernels|htap_ingest -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metric is one reported number. Samples is the number of
// observations behind it (detail file and summary table only; the
// final JSON line carries value and unit).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	outDir   string // .bench_build/lhperf
	workDir  string // this run's data directories
	tr       *tracer

	// mu guards the operation counts: the reader, the writer and the
	// compaction goroutine all record operations.
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	// Worst approximate-answer error as a share of its advertised
	// bound, over boundChecks checked values (reader goroutine only).
	errOverBound float64
	boundChecks  int

	e2e    map[string]metric
	layers map[string]metric
	detail map[string]interface{}

	// Wall time of the run's stages (detail file and summary only).
	lastMark time.Time
	stages   [][2]interface{}
}

// mark records the wall time since the previous mark under stage.
func (b *bench) mark(stage string) {
	now := time.Now()
	b.stages = append(b.stages, [2]interface{}{stage, now.Sub(b.lastMark).Seconds()})
	b.lastMark = now
}

// The metrics every run reports, in BENCHMARK.json order: -trace 0 runs
// report e2eNames, -trace 1 runs layerNames. A run whose metric set
// differs fails.
var (
	e2eNames = []string{
		"query_cpu_ms_p50_geomean", "cpu_ms_per_query", "alloc_mb_per_query",
		"live_heap_mb", "setup_s", "ingest_cpu_us_p50", "ingest_rows_per_s",
		"recovery_cpu_s", "data_dir_mb",
	}
	layerNames = []string{
		"sqlparse.parse_us", "planner.plan_us", "core.plan_cache_hit_ratio", "costopt.classify_us",
		"costopt.plan_variants", "costopt.cost_ratio", "core.overhead_us", "exec.run_ms",
		"exec.compile_ms", "exec.compile_share", "exec.compile_share.q1", "exec.compile_share.q3",
		"exec.execute_ms", "exec.output_ms", "exec.phases_over_run_worst",
		"trie.tries_built_per_query", "trie.cache_hit_ratio", "trie.lazy_levels_per_query",
		"set.uint_merge", "set.uint_gallop", "set.bs_uint", "set.bs_bs", "set.probes", "set.bytes_out",
		"runtime.gc_cycles_per_query",
		"blas.engine_over_kernel", "blas.engine_over_kernel.smv_harbor", "blas.engine_over_kernel.smv_hv15r",
		"blas.engine_over_kernel.smv_nlp240", "blas.engine_over_kernel.smm_harbor",
		"blas.engine_over_kernel.smm_nlp240", "blas.engine_over_kernel.dmv", "blas.engine_over_kernel.dmm",
		"core.ingest_ack_ms_p50", "core.ingest_ack_ms_p95", "core.ingest_ack_ms_p99",
		"storage.delta_rows_at_query", "storage.compactions", "storage.compact_ms_p50",
		"storage.ack_ms_p95_in_compaction", "storage.ack_ms_p95_outside",
		"wal.rows_per_sync", "wal.bytes_per_row", "wal.flush_ms_p95", "wal.replayed_rows",
		"approx.routed_ratio", "approx.speedup_vs_exact", "approx.misroute_ratio",
		"approx.error_over_bound_max", "approx.distinct_ms",
		"governor.shed", "bench.generator_lag_ms_p95", "bench.trace_overhead",
		"bench.query_wall_ms_p50_geomean", "bench.query_wall_ms_p90_geomean", "bench.queries_per_s",
		"bench.setup_wall_s", "bench.recovery_wall_s", "bench.cpu_over_wall",
	}
	// wallNames are the wall-clock figures: per-layer metrics, and
	// printed (not gated) in the summary of an untraced run too.
	wallNames = []string{
		"bench.query_wall_ms_p50_geomean", "bench.query_wall_ms_p90_geomean", "bench.queries_per_s",
		"core.ingest_ack_ms_p50", "core.ingest_ack_ms_p95", "bench.setup_wall_s", "bench.recovery_wall_s",
		"bench.cpu_over_wall", "bench.generator_lag_ms_p95",
	}
)

var workloads = map[string]func(*bench) error{
	"bi_tpch":     runBI,
	"la_kernels":  runLA,
	"htap_ingest": runHTAP,
}

func main() {
	workload := flag.String("workload", "", "bi_tpch, la_kernels or htap_ingest")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lhperf: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		outDir: filepath.Join(".bench_build", "lhperf"),
		e2e:    map[string]metric{}, layers: map[string]metric{}, detail: map[string]interface{}{},
		lastMark: time.Now(),
	}
	if b.traced {
		b.tr = newTracer()
	}
	b.workDir = filepath.Join(b.outDir, fmt.Sprintf("data-%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lhperf:", err)
		os.Exit(1)
	}
	err := run(b)
	if rerr := os.RemoveAll(b.workDir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhperf:", err)
		os.Exit(1)
	}
	os.Exit(b.finish())
}

// op counts one attempted operation (query, ingest batch or check) and
// records its failure, if any.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, err.Error())
	}
	return false
}

func (b *bench) fail(format string, args ...interface{}) { b.op(fmt.Errorf(format, args...)) }

func (b *bench) setE2E(name, unit string, v float64, n int) {
	b.e2e[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (b *bench) setLayer(name, unit string, v float64, n int) {
	b.layers[name] = metric{Value: v, Unit: unit, Samples: n}
}

// finish prints the summary table, writes the detail file and the final
// JSON line, and returns the exit code.
func (b *bench) finish() int {
	ms, want := b.e2e, e2eNames
	if b.traced {
		ms, want = b.layers, layerNames
	}
	if len(ms) != len(want) {
		b.fail("reported %d metrics, want %d", len(ms), len(want))
	}
	for _, n := range want {
		m, ok := ms[n]
		if !ok {
			b.fail("metric %s not reported", n)
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", n, m.Value)
			ms[n] = metric{Unit: m.Unit}
		}
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("lhperf %s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds, b.traced)
	for _, n := range names {
		m := ms[n]
		fmt.Printf("  %-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	fr := ratio(float64(b.failed), float64(b.attempted))
	fmt.Printf("  %-36s %14.6g %-6s n=%d\n", "failed_op_ratio", fr, "ratio", b.attempted)
	if !b.traced {
		fmt.Println("  wall clock (reported, not gated):")
		for _, n := range wallNames {
			m := b.layers[n]
			fmt.Printf("  %-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
		}
	}
	for _, f := range b.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	b.detail["workload"] = b.workload
	b.detail["seed"] = b.seed
	b.detail["seconds"] = b.seconds
	b.detail["traced"] = b.traced
	b.detail["attempted"] = b.attempted
	b.detail["failed"] = b.failed
	b.detail["failed_op_ratio"] = fr
	b.detail["failures"] = b.failures
	b.detail["metrics"] = ms
	b.detail["stages_s"] = b.stages
	fmt.Printf("  stages (s): %v\n", b.stages)
	if b.traced {
		b.detail["layer_times"] = selfTimes(b.tr.spans)
		b.detail["spans"] = b.tr.spans
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, map[bool]int{false: 0, true: 1}[b.traced]))
	if err := writeJSON(path, b.detail); err != nil {
		b.fail("writing detail file: %v", err)
	} else {
		fmt.Printf("  detail: %s\n", path)
	}

	out := map[string]map[string]interface{}{}
	for n, m := range ms {
		out[n] = map[string]interface{}{"value": m.Value, "unit": m.Unit}
	}
	correct := b.failed == 0
	line, err := json.Marshal(map[string]interface{}{
		"correct": correct, "attempted": b.attempted, "failed": b.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhperf:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
