package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Ingest stream shape, the same on every workload: an open loop of 20
// batches per second of 100 generated rows, each with a unique batch
// id. On htap_ingest a single background compaction is started once
// the target table holds compactAtDelta delta rows. On bi_tpch and
// la_kernels the stream runs alone after the reads for writeAlone, with
// no compaction: the write path without readers or compaction, the
// control for htap_ingest. writeAlone is short enough that the read
// phase of a 28 s run gives every la_kernels query the 100 samples a
// p90 with ten samples beyond it needs.
const (
	batchInterval  = 50 * time.Millisecond
	rowsPerBatch   = 100
	compactAtDelta = 10000
	spinWindow     = 2 * time.Millisecond
	writeAlone     = 5 * time.Second
)

// Set-up and recovery are repeated and their medians reported: at
// least min times, then until budget (wall time) has been spent, at
// most max times: small datasets get more, and so steadier, samples,
// spread over the whole budget. Recovery is
// preceded by one untimed reopening, which reads the files into the
// page cache and grows the process heap the timed ones then reuse.
var (
	setupRounds  = rounds{min: 3, max: 25, budget: 5 * time.Second}
	reopenRounds = rounds{min: 9, max: 100, budget: 5 * time.Second}
)

type rounds struct {
	min, max int
	budget   time.Duration
}

// more reports whether round i (0-based) should run, given the time
// the earlier rounds took.
func (r rounds) more(i int, spent time.Duration) bool {
	return i < r.min || (i < r.max && spent < r.budget)
}

// durEngine is one engine with its own data directory. Every workload
// runs on durable engines (WAL group commit at wal.DefaultInterval), so
// set-up, recovery and disk-space numbers mean the same on all of them.
type durEngine struct {
	name string
	dir  string
	eng  *core.Engine
}

// engineThreads is the worker count of every query. One worker per
// query keeps the benchmark's runnable threads (reader, writer,
// compaction, the runtime's GC) within the two cores it is sized for.
// With a worker per core a query waits for its slowest worker, so any
// other load on the machine times the scheduler: on a 2-vCPU VM a
// one-core busy loop slowed la_kernels' query_ms_p50_geomean by 36%
// at two workers and by 6% at one.
const engineThreads = 1

func openEngine(dir string) *core.Engine {
	return core.New(core.WithDurability(dir, wal.GroupCommit(wal.DefaultInterval)), core.WithThreads(engineThreads))
}

// closeEngine stops admission, waits for in-flight work and background
// goroutines, and syncs the WALs.
func closeEngine(e *core.Engine) {
	e.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.Drain(ctx)
}

// dataset is what a workload's set-up produces.
type dataset struct {
	engines []*durEngine
	queries []*query
	target  *durEngine // the engine the ingest stream writes to
	gen     rowGen
	// observe, when set, sees each batch before it is sent (the
	// benchmark's own bookkeeping of what it ingested).
	observe func(rows [][]interface{})
	// rows holds each engine's per-table row counts after set-up.
	rows map[string]map[string]int
	// final checks the answers of a recovered, compacted engine set.
	final func(engines map[string]*core.Engine) error
}

func (ds *dataset) close() {
	for _, de := range ds.engines {
		closeEngine(de.eng)
	}
}

func tableRows(e *core.Engine) map[string]int {
	m := map[string]int{}
	for _, ts := range e.TablesStatus() {
		m[ts.Name] = ts.Rows
	}
	return m
}

// setup builds a workload's dataset over setupRounds, each into a fresh
// directory, and keeps the last; setup_s is the median CPU time of a
// round, bench.setup_wall_s its median wall time.
func (b *bench) setup(build func(dir string) (*dataset, error)) (*dataset, error) {
	var wall, cpu series
	var ds *dataset
	for i := 0; setupRounds.more(i, secondsDur(wall.sum())); i++ {
		if ds != nil {
			ds.close()
			ds = nil
		}
		dir := filepath.Join(b.workDir, fmt.Sprintf("setup%d", i))
		if err := os.RemoveAll(filepath.Join(b.workDir, fmt.Sprintf("setup%d", i-1))); err != nil {
			return nil, err
		}
		runtime.GC()
		c0, t0 := processCPU(), time.Now()
		var err error
		if ds, err = build(dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall.add(time.Since(t0).Seconds())
		cpu.add((processCPU() - c0).Seconds())
	}
	ds.rows = map[string]map[string]int{}
	for _, de := range ds.engines {
		ds.rows[de.name] = tableRows(de.eng)
	}
	b.setE2E("setup_s", "s", cpu.median(), cpu.n())
	b.setLayer("bench.setup_wall_s", "s", wall.median(), wall.n())
	b.detail["setup_cpu_s"] = cpu.vals
	b.detail["setup_wall_s"] = wall.vals
	b.mark("setup")
	return ds, nil
}

// warm runs every query twice, filling the plan and trie caches (and
// the approximate tier's summaries); the last answer is kept as the
// reference later executions must match.
func warm(qs []*query) error {
	for _, q := range qs {
		for i := 0; i < 2; i++ {
			res, err := q.eng.QueryWithContext(context.Background(), q.sql, q.options())
			if err != nil {
				return fmt.Errorf("%s: %w", q.name, err)
			}
			q.first = res
		}
	}
	return nil
}

// heapAllocs reads the bytes the process has allocated on the heap so
// far (runtime/metrics).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleLiveHeap records the live heap the runtime measured at each
// garbage collection that finishes until ctx ends (polled every 20 ms);
// the returned function waits for that and sets live_heap_mb to the
// median over those collections. No collection is forced, so the
// measured phase is not disturbed; and since every collection counts
// once, the median depends neither on where in a compaction cycle the
// phase ends nor on a quiet stretch (the write-alone phase collects
// rarely) repeating one collection's reading.
func (b *bench) sampleLiveHeap(ctx context.Context) (wait func()) {
	var s series
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		last := sample[0].Value.Uint64()
		for {
			select {
			case <-ctx.Done():
				if s.n() == 0 { // no collection in the phase: the latest one
					s.add(float64(sample[1].Value.Uint64()) / (1 << 20))
				}
				return
			case <-tick.C:
				metrics.Read(sample)
				if c := sample[0].Value.Uint64(); c != last {
					last = c
					s.add(float64(sample[1].Value.Uint64()) / (1 << 20))
				}
			}
		}
	}()
	return func() {
		<-done
		b.setE2E("live_heap_mb", "MB", s.median(), s.n())
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// readPhase runs the closed-loop reader: one client round-robining the
// queries until ctx ends. In a traced run every other round is traced
// (spans plus the layer split), so the untraced rounds of the same run
// give the tracing overhead.
//
// bench.queries_per_s is the median, over the untraced rounds that ran
// to their end, of each round's rate (its queries over its duration);
// the mean rate over the phase goes to the detail file.
func (b *bench) readPhase(ctx context.Context, qs []*query, lg *ingestLog) {
	a0 := heapAllocs()
	c0, t0 := processCPU(), time.Now()
	done := 0
	var rates series
	for round := 0; ctx.Err() == nil; round++ {
		traced := b.traced && round%2 == 1
		r0, ok := time.Now(), 0
		for _, q := range qs {
			if ctx.Err() != nil {
				break
			}
			if b.runQuery(q, traced, lg) {
				ok++
			}
		}
		done += ok
		if !traced && ok == len(qs) {
			rates.add(float64(ok) / time.Since(r0).Seconds())
		}
	}
	elapsed := time.Since(t0).Seconds()
	cpuMs := ms(processCPU() - c0)
	allocMB := float64(heapAllocs()-a0) / (1 << 20)

	var cpu50s, p50s, p90s []float64
	n := 0
	perQuery := map[string]interface{}{}
	for _, q := range qs {
		cpu50s = append(cpu50s, q.cpu.median())
		p50s = append(p50s, q.lat.median())
		p90s = append(p90s, q.lat.pct(0.90))
		n += q.lat.n()
		perQuery[q.name] = map[string]interface{}{
			"samples": q.lat.n(), "cpu_p50_ms": q.cpu.median(), "cpu_p90_ms": q.cpu.pct(0.90),
			"p50_ms": q.lat.median(), "p90_ms": q.lat.pct(0.90), "p95_ms": q.lat.pct(0.95),
		}
	}
	b.detail["queries"] = perQuery
	b.detail["queries_per_s_mean"] = float64(done) / elapsed
	b.setE2E("query_cpu_ms_p50_geomean", "ms", geomean(cpu50s), n)
	b.setE2E("cpu_ms_per_query", "ms", cpuMs/math.Max(1, float64(done)), done)
	b.setE2E("alloc_mb_per_query", "MB", allocMB/math.Max(1, float64(done)), done)
	b.setLayer("bench.query_wall_ms_p50_geomean", "ms", geomean(p50s), n)
	b.setLayer("bench.query_wall_ms_p90_geomean", "ms", geomean(p90s), n)
	if rates.n() > 0 {
		b.setLayer("bench.queries_per_s", "1/s", rates.median(), rates.n())
	} else { // no round ran to its end
		b.setLayer("bench.queries_per_s", "1/s", float64(done)/elapsed, done)
	}
	b.setLayer("bench.cpu_over_wall", "ratio", cpuMs/1e3/elapsed, 1)
}

// staticPhases runs the read mix alone, then the ingest stream alone
// (bi_tpch and la_kernels), and finishes with recovery.
func (b *bench) staticPhases(ds *dataset) {
	total := secondsDur(b.seconds)
	readFor := total - writeAlone
	if readFor < total/2 {
		readFor = total / 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), total)
	defer cancel()
	heapDone := b.sampleLiveHeap(ctx)
	readCtx, readCancel := context.WithTimeout(ctx, readFor)
	b.readPhase(readCtx, ds.queries, nil)
	readCancel()
	b.mark("read phase")
	lg := &ingestLog{}
	b.writePhase(ctx, ds, lg, 0)
	heapDone()
	b.mark("write phase")
	b.reportIngest(ds, lg)
	b.reportLayers(ds.queries)
	b.recovery(ds, lg)
}

// ingestLog is the writer's record of what it sent and how long each
// acknowledgement took.
type ingestLog struct {
	mu      sync.Mutex
	started int // batches handed to IngestBatch
	acked   int // batches acknowledged
	rows    int // rows acknowledged

	ack, lag      series // ms from due time; ms the generator ran late
	cpu           series // µs of CPU the writer's thread spent in IngestBatch
	ackIn, ackOut series // acks that overlapped a compaction, or not
	compactMs     series
	compacting    [][2]time.Time // compaction intervals; zero end = running
	// elapsed is the seconds from the first due time to the last ack,
	// plus one interval, so a stream without backlog reads the offered
	// rate.
	elapsed float64
}

func (lg *ingestLog) window() (acked, started int) {
	if lg == nil {
		return 0, 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	return lg.acked, lg.started
}

// overlapsCompaction reports whether [from, to] overlaps a compaction.
func (lg *ingestLog) overlapsCompaction(from, to time.Time) bool {
	for _, c := range lg.compacting {
		if c[0].Before(to) && (c[1].IsZero() || c[1].After(from)) {
			return true
		}
	}
	return false
}

// writePhase runs the open-loop writer until ctx ends, then waits for
// the compaction it started, if any (compactAt 0: never compact).
func (b *bench) writePhase(ctx context.Context, ds *dataset, lg *ingestLog, compactAt int) {
	eng := ds.target.eng
	table := ds.gen.table()
	var wg sync.WaitGroup
	var compacting atomic.Bool
	t0 := time.Now()
	last := t0
	timer := time.NewTimer(0)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * batchInterval)
		// The batch is generated before its due time, so lateness
		// measures only the wait for the writer to run.
		rows := ds.gen.batch(rowsPerBatch)
		if ds.observe != nil {
			ds.observe(rows)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		// Sleep until just before the due time, then yield until it
		// passes: a Go timer fires up to a few milliseconds late, which
		// would otherwise swamp a sub-millisecond acknowledgement.
		timer.Reset(time.Until(due) - spinWindow)
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
		for ctx.Err() == nil && time.Now().Before(due) {
			runtime.Gosched()
		}
		if ctx.Err() != nil {
			break
		}
		lg.mu.Lock()
		lg.started++
		lg.mu.Unlock()
		id := b.workload + "-" + strconv.FormatInt(b.seed, 10) + "-" + strconv.Itoa(k)
		runtime.LockOSThread()
		c0, sent := threadCPU(), time.Now()
		_, dup, err := eng.IngestBatch(context.Background(), table, id, rows)
		acked, cpu := time.Now(), threadCPU()-c0
		runtime.UnlockOSThread()
		if err == nil && dup {
			err = fmt.Errorf("batch %s acknowledged as a duplicate", id)
		}
		if !b.op(err) {
			continue
		}
		last = acked
		lg.mu.Lock()
		lg.acked++
		lg.rows += len(rows)
		lg.ack.add(ms(acked.Sub(due)))
		lg.cpu.add(float64(cpu) / 1e3)
		lg.lag.add(ms(sent.Sub(due)))
		if lg.overlapsCompaction(due, acked) {
			lg.ackIn.add(ms(acked.Sub(due)))
		} else {
			lg.ackOut.add(ms(acked.Sub(due)))
		}
		lg.mu.Unlock()
		if compactAt > 0 && !compacting.Load() && deltaRows(eng, table) >= compactAt {
			compacting.Store(true)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer compacting.Store(false)
				lg.mu.Lock()
				idx := len(lg.compacting)
				cs := time.Now()
				lg.compacting = append(lg.compacting, [2]time.Time{cs, {}})
				lg.mu.Unlock()
				err := eng.Compact(context.Background())
				ce := time.Now()
				lg.mu.Lock()
				lg.compacting[idx][1] = ce
				lg.compactMs.add(ms(ce.Sub(cs)))
				lg.mu.Unlock()
				b.op(err)
			}()
		}
	}
	wg.Wait()
	lg.elapsed = last.Sub(t0).Seconds() + batchInterval.Seconds()
}

func deltaRows(e *core.Engine, table string) int {
	for _, ts := range e.TablesStatus() {
		if ts.Name == table {
			return ts.DeltaRows
		}
	}
	return 0
}

// reportIngest sets the write-path metrics.
func (b *bench) reportIngest(ds *dataset, lg *ingestLog) {
	b.setE2E("ingest_cpu_us_p50", "us", lg.cpu.median(), lg.cpu.n())
	b.setLayer("core.ingest_ack_ms_p50", "ms", lg.ack.median(), lg.ack.n())
	b.setLayer("core.ingest_ack_ms_p95", "ms", lg.ack.pct(0.95), lg.ack.n())
	b.setLayer("core.ingest_ack_ms_p99", "ms", lg.ack.pct(0.99), lg.ack.n())
	b.setE2E("ingest_rows_per_s", "1/s", float64(lg.rows)/lg.elapsed, lg.acked)
	b.setLayer("bench.generator_lag_ms_p95", "ms", lg.lag.pct(0.95), lg.lag.n())
	b.setLayer("storage.compactions", "count", float64(lg.compactMs.n()), lg.compactMs.n())
	b.setLayer("storage.compact_ms_p50", "ms", lg.compactMs.median(), lg.compactMs.n())
	b.setLayer("storage.ack_ms_p95_in_compaction", "ms", lg.ackIn.pct(0.95), lg.ackIn.n())
	b.setLayer("storage.ack_ms_p95_outside", "ms", lg.ackOut.pct(0.95), lg.ackOut.n())
	c := ds.target.eng.Telemetry().Counters()
	syncs := float64(c["wal_syncs_total"])
	b.setLayer("wal.rows_per_sync", "rows", ratio(float64(lg.rows), syncs), int(syncs))
	b.setLayer("wal.bytes_per_row", "B", ratio(float64(c["wal_bytes_total"]), float64(lg.rows)), lg.rows)
	b.setLayer("wal.flush_ms_p95", "ms", float64(c["wal_flush_p95_ns"])/1e6, int(syncs))
	var shed int64
	for _, de := range ds.engines {
		shed += de.eng.Telemetry().Counters()["gov_shed"]
	}
	b.setLayer("governor.shed", "count", float64(shed), 1)
	b.detail["ingest"] = map[string]interface{}{
		"batches_started": lg.started, "batches_acked": lg.acked, "rows_acked": lg.rows,
		"ack_p50_ms": lg.ack.median(), "ack_p95_ms": lg.ack.pct(0.95), "ack_max_ms": lg.ack.pct(1),
		"generator_lag_p50_ms": lg.lag.median(), "generator_lag_p95_ms": lg.lag.pct(0.95),
		"generator_lag_max_ms": lg.lag.pct(1), "compact_ms": lg.compactMs.vals,
		"ack_ms": lg.ack.vals, "ack_in_compaction_ms": lg.ackIn.vals,
	}
}

// recovery shuts the workload's engines down, measures the data
// directories, reopens them over reopenRounds (recovery_cpu_s is the
// median CPU time to open all of them, bench.recovery_wall_s the median
// wall time), checks that the recovered engines
// hold exactly the set-up rows plus every acknowledged row, compacts
// and runs the workload's final answer check.
func (b *bench) recovery(ds *dataset, lg *ingestLog) {
	ds.close()
	var bytes int64
	for _, de := range ds.engines {
		bytes += dirBytes(de.dir)
	}
	b.setE2E("data_dir_mb", "MB", float64(bytes)/(1<<20), len(ds.engines))
	b.mark("shutdown")

	var rec, recWall series
	var engines map[string]*core.Engine
	for r := -1; reopenRounds.more(r, secondsDur(recWall.sum())); r++ {
		if engines != nil {
			for _, e := range engines {
				closeEngine(e)
			}
		}
		runtime.GC()
		engines = map[string]*core.Engine{}
		c0, t0 := processCPU(), time.Now()
		for _, de := range ds.engines {
			engines[de.name] = openEngine(de.dir)
		}
		if r >= 0 {
			recWall.add(time.Since(t0).Seconds())
			rec.add((processCPU() - c0).Seconds())
		}
	}
	defer func() {
		for _, e := range engines {
			closeEngine(e)
		}
	}()
	b.setE2E("recovery_cpu_s", "s", rec.median(), rec.n())
	b.setLayer("bench.recovery_wall_s", "s", recWall.median(), recWall.n())
	b.detail["recovery_cpu_s"] = rec.vals
	b.detail["recovery_wall_s"] = recWall.vals
	b.mark("recovery")
	defer b.mark("final checks")

	var replayed int64
	for _, de := range ds.engines {
		e := engines[de.name]
		replayed += e.Telemetry().Counters()["wal_replayed_rows"]
		if err := e.RecoveryError(); err != nil {
			b.fail("recovery of %s: %v", de.name, err)
			continue
		}
		want := ds.rows[de.name]
		got := tableRows(e)
		for table, n := range want {
			if de == ds.target && table == ds.gen.table() {
				n += lg.rows
			}
			if got[table] != n {
				b.fail("recovered %s.%s holds %d rows, want %d", de.name, table, got[table], n)
			} else {
				b.op(nil)
			}
		}
	}
	b.setLayer("wal.replayed_rows", "rows", float64(replayed), 1)

	tgt := engines[ds.target.name]
	table := ds.gen.table()
	res, err := tgt.QueryWithContext(context.Background(), "SELECT count(*) FROM "+table, core.QueryOptions{})
	if err == nil {
		want := ds.rows[ds.target.name][table] + lg.rows
		if got := int(res.Cols[0].Float(0)); got != want {
			err = fmt.Errorf("recovered count(*) of %s = %d, want %d", table, got, want)
		}
	}
	b.op(err)
	for name, e := range engines {
		if err := e.Compact(context.Background()); err != nil {
			b.fail("compacting recovered %s: %v", name, err)
		}
	}
	b.op(ds.final(engines))
}

// dirBytes sums the sizes of the files under dir. The walk callback
// never fails, so WalkDir's error is always nil; an entry that vanishes
// mid-walk just does not count.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, ierr := d.Info(); ierr == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
