package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/exec"
	"repro/internal/storage"
)

// htap_ingest read mix beyond q1/q3/q6: statements whose exact answer
// the benchmark can compute from what it generated and ingested.
const (
	sqlCount    = "SELECT count(*) FROM lineitem"
	sqlDistinct = "SELECT count(distinct l_partkey) FROM lineitem"
	// Count-Min route of the approximate tier (heavy-hitter GROUP BY).
	sqlShipmode = "SELECT l_shipmode, count(*) FROM lineitem GROUP BY l_shipmode"
	// Sample route (filtered count and sum).
	sqlFiltered = "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity < 25"
)

// runHTAP: the TPC-H data under the ingest stream while one
// closed-loop client reads. Every append moves the lineitem
// generation, so read-side caches are invalidated continually.
func runHTAP(b *bench) error {
	ds, err := b.setup(func(dir string) (*dataset, error) {
		de, sz, err := buildTPCH(dir, b.seed)
		if err != nil {
			return nil, err
		}
		bk := newLiBook(de.eng.Catalog().Table("lineitem"))
		ds := &dataset{engines: []*durEngine{de}, target: de,
			gen: newLineitemGen(b.seed+1, sz), observe: bk.observe, final: finalTPCH}
		ds.queries = []*query{tpchQuery(de.eng, "q1"), tpchQuery(de.eng, "q3"), tpchQuery(de.eng, "q6")}
		for _, q := range ds.queries {
			q.check = func(*exec.Result, window) error { return nil } // data moves; checked after recovery
		}
		ds.queries = append(ds.queries,
			&query{name: "count_star", sql: sqlCount, eng: de.eng, split: true, check: bk.checkCount},
			&query{name: "count_distinct", sql: sqlDistinct, eng: de.eng, check: bk.checkDistinct},
			&query{name: "hh_shipmode", sql: sqlShipmode, eng: de.eng, approxOK: true, check: b.checkShipmode(bk)},
			&query{name: "filtered_sum", sql: sqlFiltered, eng: de.eng, approxOK: true, check: b.checkFiltered(bk)},
		)
		return ds, warm(ds.queries)
	})
	if err != nil {
		return err
	}
	cat := ds.target.eng.Catalog()
	for _, q := range ds.queries {
		if _, ok := groupCols[q.name]; ok {
			b.op(pairwiseCheck(cat, q.name, q.first))
		} else {
			b.op(wrap(q.name, q.check(q.first, window{})))
		}
	}
	b.mark("reference checks")
	ctx, cancel := context.WithTimeout(context.Background(), secondsDur(b.seconds))
	defer cancel()
	lg := &ingestLog{}
	heapDone := b.sampleLiveHeap(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.writePhase(ctx, ds, lg, compactAtDelta)
	}()
	b.readPhase(ctx, ds.queries, lg)
	wg.Wait()
	heapDone()
	b.mark("measured")
	b.reportIngest(ds, lg)
	b.reportLayers(ds.queries)
	b.recovery(ds, lg)
	return nil
}

// liAgg holds exact answers of the htap statements over the base data
// plus a prefix of the ingest stream.
type liAgg struct {
	rows      int
	lowQty    int     // rows with l_quantity < 25
	lowQtySum float64 // their sum of l_extendedprice
	modes     [7]int  // rows per l_shipmode (index into shipmodes)
	distinct  int     // distinct l_partkey
}

// liBook is the benchmark's own account of lineitem: prefix[k] is the
// exact state after the first k ingest batches.
type liBook struct {
	mu        sync.Mutex
	prefix    []liAgg
	parts     map[int64]struct{}
	lastCount float64
}

func modeIndex(m string) int {
	for i, s := range shipmodes {
		if s == m {
			return i
		}
	}
	return -1
}

func newLiBook(li *storage.Table) *liBook {
	bk := &liBook{parts: map[int64]struct{}{}}
	var a liAgg
	qty, price := li.Col("l_quantity").Floats, li.Col("l_extendedprice").Floats
	modes, parts := li.Col("l_shipmode").Strs, li.Col("l_partkey").Ints
	for r := 0; r < li.NumRows; r++ {
		a.add(qty[r], price[r], modes[r], parts[r], bk.parts)
	}
	bk.prefix = []liAgg{a}
	return bk
}

func (a *liAgg) add(qty, price float64, mode string, part int64, parts map[int64]struct{}) {
	a.rows++
	if qty < 25 {
		a.lowQty++
		a.lowQtySum += price
	}
	if i := modeIndex(mode); i >= 0 {
		a.modes[i]++
	}
	if _, ok := parts[part]; !ok {
		parts[part] = struct{}{}
		a.distinct++
	}
}

// observe records a batch before it is sent (lineitemGen row layout).
func (bk *liBook) observe(rows [][]interface{}) {
	bk.mu.Lock()
	defer bk.mu.Unlock()
	a := bk.prefix[len(bk.prefix)-1]
	for _, r := range rows {
		a.add(r[4].(float64), r[5].(float64), r[13].(string), r[1].(int64), bk.parts)
	}
	bk.prefix = append(bk.prefix, a)
}

// span returns the exact states at both ends of a window.
func (bk *liBook) span(w window) (lo, hi liAgg) {
	bk.mu.Lock()
	defer bk.mu.Unlock()
	return bk.prefix[w.lo], bk.prefix[w.hi]
}

// outside is how far v lies outside [lo, hi], beyond float rounding.
func outside(v, lo, hi float64) float64 {
	tol := relTol * math.Max(1, math.Abs(hi))
	switch {
	case v < lo-tol:
		return lo - v
	case v > hi+tol:
		return v - hi
	}
	return 0
}

func (bk *liBook) checkCount(res *exec.Result, w window) error {
	lo, hi := bk.span(w)
	v := res.Cols[0].Float(0)
	if d := outside(v, float64(lo.rows), float64(hi.rows)); d > 0 {
		return fmt.Errorf("count(*) = %v, want %d..%d", v, lo.rows, hi.rows)
	}
	if v < bk.lastCount {
		return fmt.Errorf("count(*) went down from %v to %v", bk.lastCount, v)
	}
	bk.lastCount = v
	return nil
}

func (bk *liBook) checkDistinct(res *exec.Result, w window) error {
	lo, hi := bk.span(w)
	v := res.Cols[0].Float(0)
	if d := outside(v, float64(lo.distinct), float64(hi.distinct)); d > 0 {
		return fmt.Errorf("count(distinct l_partkey) = %v, want %d..%d", v, lo.distinct, hi.distinct)
	}
	return nil
}

// withinBound checks one answer cell against the exact range it may
// take: an approximate answer must lie within its advertised bound, an
// exact one must match.
func (b *bench) withinBound(what string, v, lo, hi float64, approx bool, bound float64) error {
	d := outside(v, lo, hi)
	if approx && bound > 0 {
		b.boundChecks++
		b.errOverBound = math.Max(b.errOverBound, d/bound)
	}
	if d > 0 && !(approx && d <= bound) {
		return fmt.Errorf("%s = %v, want %v..%v (approximate %v, bound %v)", what, v, lo, hi, approx, bound)
	}
	return nil
}

// colBound is the error bound advertised for an answer column (0 for
// an exact answer).
func colBound(res *exec.Result, col int) float64 {
	s := res.Stats
	if s == nil || !s.Approx {
		return 0
	}
	if col < len(s.ErrorBounds) {
		return s.ErrorBounds[col]
	}
	return s.ErrorBound
}

func isApprox(res *exec.Result) bool { return res.Stats != nil && res.Stats.Approx }

func (b *bench) checkShipmode(bk *liBook) func(*exec.Result, window) error {
	return func(res *exec.Result, w window) error {
		lo, hi := bk.span(w)
		seen := [7]bool{}
		for r := 0; r < res.NumRows; r++ {
			m := res.Cols[0].Str[r]
			i := modeIndex(m)
			if i < 0 {
				return fmt.Errorf("unknown l_shipmode %q", m)
			}
			seen[i] = true
			if err := b.withinBound("count of "+m, res.Cols[1].Float(r), float64(lo.modes[i]), float64(hi.modes[i]),
				isApprox(res), colBound(res, 1)); err != nil {
				return err
			}
		}
		for i, ok := range seen {
			if ok || lo.modes[i] == 0 {
				continue
			}
			if !isApprox(res) || float64(lo.modes[i]) > res.Stats.MissBound {
				return fmt.Errorf("group %s (%d rows) missing from the answer", shipmodes[i], lo.modes[i])
			}
		}
		return nil
	}
}

func (b *bench) checkFiltered(bk *liBook) func(*exec.Result, window) error {
	return func(res *exec.Result, w window) error {
		lo, hi := bk.span(w)
		if err := b.withinBound("filtered count", res.Cols[0].Float(0), float64(lo.lowQty), float64(hi.lowQty),
			isApprox(res), colBound(res, 0)); err != nil {
			return err
		}
		return b.withinBound("filtered sum", res.Cols[1].Float(0), lo.lowQtySum, hi.lowQtySum,
			isApprox(res), colBound(res, 1))
	}
}
