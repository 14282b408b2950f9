package main

import (
	"math"

	"repro/internal/set"
)

// reportLayers derives the per-layer metrics from the queries'
// observations. A metric whose layer the workload does not exercise
// reads 0 with 0 samples.
func (b *bench) reportLayers(qs []*query) {
	var split, all []*query
	for _, q := range qs {
		all = append(all, q)
		if q.split {
			split = append(split, q)
		}
	}
	b.layerMean("sqlparse.parse_us", "us", split, func(q *query) *series { return &q.ly.parse })
	b.layerMean("planner.plan_us", "us", split, func(q *query) *series { return &q.ly.plan })
	b.layerMean("costopt.classify_us", "us", split, func(q *query) *series { return &q.ly.classify })
	b.layerMean("exec.run_ms", "ms", split, func(q *query) *series { return &q.ly.run })
	b.layerMean("exec.compile_ms", "ms", split, func(q *query) *series { return &q.ly.compile })
	b.layerMean("exec.execute_ms", "ms", split, func(q *query) *series { return &q.ly.execute })
	b.layerMean("exec.output_ms", "ms", split, func(q *query) *series { return &q.ly.output })

	var n, cached, nVariants, planned, nq int
	var compile, total, overhead float64
	worst := 1.0 // phase timers over the Engine.Execute span, farthest from 1
	phases := map[string]interface{}{}
	for _, q := range split {
		la := &q.ly
		n += la.n
		cached += la.planCached
		// Scalar scans have no join plan, so no variants.
		if v := max(len(la.executed), len(la.fresh)); v > 0 {
			nVariants += v
			planned++
		}
		compile += la.compile.median()
		total += la.tot.median()
		if q.tlat.n() > 0 && la.prepare.n() > 0 && la.run.n() > 0 {
			overhead += q.tlat.median()*1e3 - la.prepare.median() - la.run.median()*1e3
			nq++
		}
		if la.run.n() > 0 {
			sum := la.compile.median() + la.execute.median() + la.output.median()
			r := ratio(sum, la.run.median())
			if math.Abs(r-1) > math.Abs(worst-1) {
				worst = r
			}
			phases[q.name] = map[string]float64{
				"compile_ms": la.compile.median(), "execute_ms": la.execute.median(),
				"output_ms": la.output.median(), "engine_execute_span_ms": la.run.median(),
				"phases_over_span": r, "compile_share": ratio(la.compile.median(), la.tot.median()),
			}
		}
	}
	b.detail["phases"] = phases
	b.setLayer("core.plan_cache_hit_ratio", "ratio", ratio(float64(cached), float64(n)), n)
	b.setLayer("costopt.plan_variants", "count", ratio(float64(nVariants), float64(planned)), planned)
	b.setLayer("core.overhead_us", "us", ratio(overhead, float64(nq)), nq)
	b.setLayer("exec.compile_share", "ratio", ratio(compile, total), n)
	b.setLayer("exec.phases_over_run_worst", "ratio", worst, len(phases))
	for _, name := range []string{"q1", "q3"} {
		v, cnt := 0.0, 0
		for _, q := range split {
			if q.name == name {
				v, cnt = ratio(q.ly.compile.median(), q.ly.tot.median()), q.ly.tot.n()
			}
		}
		b.setLayer("exec.compile_share."+name, "ratio", v, cnt)
	}

	var execs, built, hits, misses, lazy, deltaRows int
	var gc uint64
	var est, actual float64
	var is set.Stats
	variantsOf := map[string]map[string]variants{}
	dispatch := map[string]map[string]int{}
	for _, q := range all {
		la := &q.ly
		execs += la.n
		built += la.triesBuilt
		hits += la.hits
		misses += la.misses
		lazy += la.lazyLevels
		deltaRows += la.deltaRows
		gc += la.gcCycles
		est += la.est
		actual += la.actual
		is.Add(&la.isect)
		variantsOf[q.name] = map[string]variants{"executed": la.executed, "fresh": la.fresh}
		dispatch[q.name] = la.dispatch
	}
	b.detail["plan_variants"] = variantsOf
	b.detail["dispatch"] = dispatch
	per := func(v float64) float64 { return ratio(v, float64(execs)) }
	b.setLayer("costopt.cost_ratio", "ratio", ratio(actual, est), execs)
	b.setLayer("trie.tries_built_per_query", "count", per(float64(built)), execs)
	b.setLayer("trie.cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), hits+misses)
	b.setLayer("trie.lazy_levels_per_query", "count", per(float64(lazy)), execs)
	b.setLayer("set.uint_merge", "count", per(float64(is.UintUintMerge)), execs)
	b.setLayer("set.uint_gallop", "count", per(float64(is.UintUintGallop)), execs)
	b.setLayer("set.bs_uint", "count", per(float64(is.BsUint)), execs)
	b.setLayer("set.bs_bs", "count", per(float64(is.BsBs)), execs)
	b.setLayer("set.probes", "count", per(float64(is.Probes)), execs)
	b.setLayer("set.bytes_out", "B", per(float64(is.BytesOut)), execs)
	b.setLayer("runtime.gc_cycles_per_query", "count", per(float64(gc)), execs)
	b.setLayer("storage.delta_rows_at_query", "rows", per(float64(deltaRows)), execs)

	// Engine over reference kernel, per LA query and as a geomean.
	var kr []float64
	for _, q := range all {
		if q.kernel == nil {
			continue
		}
		r := ratio(q.lat.median(), q.ly.kernel.median())
		kr = append(kr, r)
		b.setLayer("blas.engine_over_kernel."+q.name, "ratio", r, q.ly.kernel.n())
	}
	for _, name := range laQueryNames {
		if _, ok := b.layers["blas.engine_over_kernel."+name]; !ok {
			b.setLayer("blas.engine_over_kernel."+name, "ratio", 0, 0)
		}
	}
	b.setLayer("blas.engine_over_kernel", "ratio", geomean(kr), len(kr))

	// Approximate tier.
	var runs, routed, nRouted, mis int
	var speedups []float64
	distinct, distinctN := 0.0, 0
	approxOf := map[string]interface{}{}
	for _, q := range all {
		if q.name == "count_distinct" {
			distinct, distinctN = q.lat.median(), q.lat.n()
		}
		if !q.approxOK {
			continue
		}
		runs += q.ly.approxRuns
		routed += q.ly.routed
		approxOf[q.name] = map[string]interface{}{
			"dispatch": q.ly.dispatch, "approx_p50_ms": q.lat.median(), "exact_p50_ms": q.ly.exact.median(),
			"speedup": ratio(q.ly.exact.median(), q.lat.median()),
		}
		if q.ly.routed > 0 && q.ly.exact.n() > 0 {
			s := ratio(q.ly.exact.median(), q.lat.median())
			speedups = append(speedups, s)
			nRouted++
			if s < 1 {
				mis++
			}
		}
	}
	b.detail["approx"] = approxOf
	b.setLayer("approx.routed_ratio", "ratio", ratio(float64(routed), float64(runs)), runs)
	b.setLayer("approx.speedup_vs_exact", "ratio", geomean(speedups), len(speedups))
	b.setLayer("approx.misroute_ratio", "ratio", ratio(float64(mis), float64(nRouted)), nRouted)
	b.setLayer("approx.error_over_bound_max", "ratio", b.errOverBound, b.boundChecks)
	b.setLayer("approx.distinct_ms", "ms", distinct, distinctN)

	// Tracing overhead: traced over untraced rounds of the same run.
	var tp, up []float64
	for _, q := range all {
		if q.tlat.n() > 0 && q.lat.n() > 0 {
			tp = append(tp, q.tlat.median())
			up = append(up, q.lat.median())
		}
	}
	b.setLayer("bench.trace_overhead", "ratio", ratio(geomean(tp), geomean(up)), len(tp))
}

// layerMean sets a layer metric to the mean of the per-query medians
// of one series, over the queries that have samples.
func (b *bench) layerMean(name, unit string, qs []*query, get func(*query) *series) {
	sum, k, n := 0.0, 0, 0
	for _, q := range qs {
		s := get(q)
		if s.n() == 0 {
			continue
		}
		sum += s.median()
		k++
		n += s.n()
	}
	b.setLayer(name, unit, ratio(sum, float64(k)), n)
}
