package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costopt"
	"repro/internal/exec"
	"repro/internal/ghd"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/set"
	"repro/internal/sqlparse"
)

// query is one statement of a workload's read mix.
type query struct {
	name     string
	sql      string
	eng      *core.Engine
	approxOK bool
	// split: traced rounds also call the layer entry points one by one
	// on the same SQL (statements the approximate tier serves are not
	// split: they never reach the planner).
	split bool
	// keys names the group columns, for comparing answers whose row
	// order may differ.
	keys  []string
	first *exec.Result
	// check validates an answer given the ingest window the query ran
	// in; nil means "must match the first (warm) answer".
	check func(res *exec.Result, w window) error
	// kernel times the reference kernel on the data the query reads
	// (LA queries; traced rounds only).
	kernel func() time.Duration

	lat, tlat series // latency (ms) in untraced and traced rounds
	cpu       series // process CPU time (ms) while it ran, untraced rounds
	ly        layerAgg
}

func (q *query) options() core.QueryOptions { return core.QueryOptions{ApproxOK: q.approxOK} }

// window bounds which ingest batches a query could have seen: all of
// the first lo were acknowledged before it started, and no more than hi
// had been sent when it finished.
type window struct{ lo, hi int }

// layerAgg collects one query's per-layer observations.
type layerAgg struct {
	n, planCached                 int
	compile, execute, output, tot series // ms, from Result.Stats phases
	triesBuilt, hits, misses      int
	lazyLevels                    int
	isect                         set.Stats
	gcCycles                      uint64
	deltaRows                     int
	est, actual                   float64
	// Plan variants of the executed plans (Result.Stats) and of plans
	// chosen anew by the layer split (no plan cache).
	executed, fresh    variants
	routed, approxRuns int
	dispatch           map[string]int

	parse, plan, classify, prepare, run series // µs / ms, benchmark-timed calls
	exact, kernel                       series // ms
}

func (la *layerAgg) observe(st *obs.QueryStats) {
	if st == nil {
		return
	}
	la.n++
	if st.PlanCached {
		la.planCached++
	}
	la.compile.add(ms(st.Phases.Compile))
	la.execute.add(ms(st.Phases.Execute))
	la.output.add(ms(st.Phases.Output))
	la.tot.add(ms(st.Phases.Total))
	la.triesBuilt += st.TriesBuilt
	la.hits += st.TrieCacheHits
	la.misses += st.TrieCacheMisses
	la.isect.Add(&st.Intersect)
	la.gcCycles += st.GCCycles
	la.deltaRows += st.DeltaRowsFolded
	for _, nc := range st.NodeCosts {
		la.est += nc.Est
		la.actual += nc.Actual
		la.lazyLevels += nc.LazyLevels
	}
	if la.dispatch == nil {
		la.dispatch = map[string]int{}
	}
	la.dispatch[st.Dispatch]++
	if len(st.RootOrder) > 0 || len(st.AccessPaths) > 0 {
		la.executed.add(st.RootOrder, st.AccessPaths)
	}
	if st.ApproxRoute != "" {
		la.approxRuns++
		if st.Approx {
			la.routed++
		}
	}
}

// variants is a set of (root order, access paths) plan variants.
type variants map[string]bool

func (v *variants) add(order, paths []string) {
	if *v == nil {
		*v = variants{}
	}
	(*v)[strings.Join(order, ",")+"/"+strings.Join(paths, ",")] = true
}

// runQuery runs one query through Engine.Query, times it, checks the
// answer and, in a traced round, records the layer split.
func (b *bench) runQuery(q *query, traced bool, lg *ingestLog) bool {
	var w window
	w.lo, _ = lg.window()
	c0 := processCPU()
	start := time.Now()
	res, err := q.eng.QueryWithContext(context.Background(), q.sql, q.options())
	end := time.Now()
	cpu := processCPU() - c0
	_, w.hi = lg.window()
	if err == nil {
		if q.check != nil {
			err = q.check(res, w)
		} else {
			err = sameResult(res, q.first, q.keys)
		}
	}
	if !b.op(wrap(q.name, err)) {
		return false
	}
	if traced {
		q.tlat.add(ms(end.Sub(start)))
	} else {
		q.lat.add(ms(end.Sub(start)))
		q.cpu.add(ms(cpu))
	}
	if b.traced {
		q.ly.observe(res.Stats)
	}
	if traced {
		req := b.tr.id()
		b.tr.record(b.tr.id(), req, req, "core.Engine.Query", start, end)
		b.traceLayers(q, req)
		b.tr.record(req, 0, req, "request", start, time.Now())
	}
	return true
}

func wrap(name string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", name, err)
}

// traceLayers calls each layer's public entry point on the query's SQL
// as a child span of the request: parse, plan (planner.Build +
// costopt.Choose), path classification, then the engine's own
// Prepare/Execute split. Approximate queries are re-run exact, and LA
// queries time their reference kernel.
func (b *bench) traceLayers(q *query, req int64) {
	tr := b.tr
	if q.split {
		var ast *sqlparse.Query
		var perr error
		d := tr.timed("sqlparse.Parse", req, req, func() { ast, perr = sqlparse.Parse(q.sql) })
		q.ly.parse.add(float64(d) / 1e3)
		var p *planner.Plan
		var ch *costopt.Choice
		if perr == nil {
			d1 := tr.timed("planner.Build", req, req, func() { p, perr = planner.Build(ast, q.eng.Catalog()) })
			var d2 time.Duration
			if perr == nil {
				d2 = tr.timed("costopt.Choose", req, req, func() { ch, perr = costopt.Choose(p, costopt.Options{}) })
			}
			q.ly.plan.add(float64(d1+d2) / 1e3)
		}
		if perr == nil && p.GHD != nil {
			_, fp := sqlparse.Fingerprint(ast)
			drift := q.eng.Telemetry().Statements.CostRatio(fp)
			var paths map[*ghd.Node]*costopt.PathInfo
			d := tr.timed("costopt.ClassifyPaths", req, req, func() { paths = costopt.ClassifyPaths(p, ch, drift) })
			q.ly.classify.add(float64(d) / 1e3)
			q.ly.fresh.add(freshVariant(p, ch, paths))
		}
		if perr != nil {
			b.fail("%s: layer split: %v", q.name, perr)
		}
		qo := q.options()
		var pp *planner.Plan
		var pch *costopt.Choice
		var err error
		d = tr.timed("core.Engine.Prepare", req, req, func() { pp, pch, err = q.eng.Prepare(q.sql, qo) })
		q.ly.prepare.add(float64(d) / 1e3)
		if err == nil {
			var res *exec.Result
			d = tr.timed("core.Engine.Execute", req, req, func() { res, err = q.eng.Execute(pp, pch, qo) })
			q.ly.run.add(ms(d))
			if err == nil && q.check == nil {
				err = sameResult(res, q.first, q.keys)
			}
		}
		b.op(wrap(q.name+" (prepare/execute)", err))
	}
	if q.approxOK {
		var err error
		d := tr.timed("core.Engine.Query exact", req, req, func() {
			_, err = q.eng.QueryWithContext(context.Background(), q.sql, core.QueryOptions{})
		})
		if b.op(wrap(q.name+" (exact re-run)", err)) {
			q.ly.exact.add(ms(d))
		}
	}
	if q.kernel != nil {
		var d time.Duration
		tr.timed("blas kernel", req, req, func() { d = q.kernel() })
		q.ly.kernel.add(ms(d))
	}
}

// freshVariant renders the root order and per-node access paths of a
// plan chosen anew (no plan cache).
func freshVariant(p *planner.Plan, ch *costopt.Choice, paths map[*ghd.Node]*costopt.PathInfo) (order, ps []string) {
	if o := ch.Orders[p.GHD.Root]; o != nil {
		order = o.Attrs
	}
	p.GHD.Walk(func(n *ghd.Node, _ int) {
		path := costopt.PathWCOJ
		if pi := paths[n]; pi != nil {
			path = pi.Path
		}
		ps = append(ps, path)
	})
	return order, ps
}

// relTol is the relative error every numeric answer must meet.
const relTol = 1e-9

func near(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// sameResult compares two answers: row by row first, then by group key
// when the row order differs.
func sameResult(got, want *exec.Result, keys []string) error {
	if got.NumRows != want.NumRows || len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("answer has %d rows x %d cols, want %d x %d", got.NumRows, len(got.Cols), want.NumRows, len(want.Cols))
	}
	if samePositional(got, want) {
		return nil
	}
	return sameRows(rowsOf(got, keys), rowsOf(want, keys))
}

func samePositional(got, want *exec.Result) bool {
	for c, gc := range got.Cols {
		wc := want.Cols[c]
		if gc.Kind != wc.Kind {
			return false
		}
		for r := 0; r < got.NumRows; r++ {
			switch gc.Kind {
			case exec.KindString:
				if gc.Str[r] != wc.Str[r] {
					return false
				}
			default:
				if !near(gc.Float(r), wc.Float(r)) {
					return false
				}
			}
		}
	}
	return true
}

// rowsOf converts an answer to group key → aggregate values, the form
// the pairwise reference engine produces.
func rowsOf(res *exec.Result, keys []string) map[string][]float64 {
	isKey := map[string]bool{}
	var keyCols, valCols []*exec.Column
	for _, k := range keys {
		if c := res.Col(k); c != nil {
			keyCols = append(keyCols, c)
			isKey[k] = true
		}
	}
	for _, c := range res.Cols {
		if !isKey[c.Name] {
			valCols = append(valCols, c)
		}
	}
	out := make(map[string][]float64, res.NumRows)
	parts := make([]string, len(keyCols))
	for r := 0; r < res.NumRows; r++ {
		for i, c := range keyCols {
			switch c.Kind {
			case exec.KindString:
				parts[i] = c.Str[r]
			case exec.KindInt:
				parts[i] = strconv.FormatInt(c.I64[r], 10)
			default:
				parts[i] = strconv.FormatFloat(c.F64[r], 'g', -1, 64)
			}
		}
		vals := make([]float64, len(valCols))
		for i, c := range valCols {
			vals[i] = c.Float(r)
		}
		out[strings.Join(parts, "|")] = vals
	}
	return out
}

func sameRows(got, want map[string][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("answer has %d groups, want %d", len(got), len(want))
	}
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("group %q missing", k)
		}
		if len(gv) != len(wv) {
			return fmt.Errorf("group %q has %d values, want %d", k, len(gv), len(wv))
		}
		for i := range wv {
			if !near(gv[i], wv[i]) {
				return fmt.Errorf("group %q value %d = %v, want %v", k, i, gv[i], wv[i])
			}
		}
	}
	return nil
}
