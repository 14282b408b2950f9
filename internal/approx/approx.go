// Package approx is the approximate query tier: single-table aggregate
// queries answered from a per-table summary (HyperLogLog cardinalities,
// Count-Min group counts, a uniform reservoir sample of row ids)
// instead of the full WCOJ pipeline, with an explicit error bound on
// every estimate. It also owns the exact evaluation of COUNT(DISTINCT
// col) — a shape the trie engine does not execute — so the sketches
// always have an exact anchor on the same code path.
//
// Both scans run on the snapshot-resolved generation through
// internal/expr: the WHERE clause and the sum/avg/min/max arguments are
// the engine's compiled closures over the columnar buffers, and group
// and distinct identity is a per-column uint64 token (see token). The
// exact scan visits every row; the sample route visits the reservoir's
// row ids, which name the same rows in every later generation because
// generations append and compaction preserves row order.
//
// The tier is strictly opt-in (QueryOptions.ApproxOK): without the
// opt-in the only shape served here is the exact distinct scan, and
// every other query falls through to the normal engine untouched.
package approx

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// Agg is one aggregate call of a supported shape.
type Agg struct {
	Fn       string // count | sum | avg | min | max
	Col      string // argument column name; "" for count(*)
	Distinct bool   // count(distinct Col)
}

// OutCol maps one SELECT position to its source: a GROUP BY column
// (Group ≥ 0) or an aggregate (Agg ≥ 0).
type OutCol struct {
	Name  string
	Group int
	Agg   int
}

// Shape is a supported single-table aggregate query compiled against
// one table generation: optional WHERE over the table's columns,
// plain-column GROUP BY, and SELECT items that are either group columns
// or bare aggregate calls.
type Shape struct {
	Table   string
	GroupBy []string
	Aggs    []Agg
	Out     []OutCol

	HasDistinct bool
	HasMinMax   bool

	g        *storage.Table
	filter   expr.Filter              // nil: no WHERE
	groupTok []func(row int32) uint64 // per GroupBy column
	aggTok   []func(row int32) uint64 // per Agg; set for distinct
	aggVal   []expr.Value             // per Agg; set for sum/avg/min/max
}

// Analyze reports whether q is a supported shape over the generation g
// and compiles it there. A false return means "not this tier's query":
// the caller falls through to the normal engine. The WHERE clause is
// compiled by internal/expr, and the tier declines exactly the filters
// expr cannot compile — except on distinct shapes, which the normal
// engine cannot run either, where expr's error is returned.
func Analyze(q *sqlparse.Query, g *storage.Table) (*Shape, bool, error) {
	if len(q.From) != 1 || q.Having != nil {
		return nil, false, nil
	}
	sch := &g.Schema
	alias := q.From[0].Alias
	if alias == "" {
		alias = q.From[0].Table
	}
	sh := &Shape{Table: q.From[0].Table, g: g}
	bind := &expr.Binding{Alias: alias, Table: g}

	resolve := func(cr sqlparse.ColRef) (string, bool) {
		if cr.Qualifier != "" && cr.Qualifier != alias {
			return "", false
		}
		if sch.Col(cr.Name) == nil {
			return "", false
		}
		return cr.Name, true
	}

	for _, ge := range q.GroupBy {
		cr, ok := ge.(sqlparse.ColRef)
		if !ok {
			return nil, false, nil
		}
		name, ok := resolve(cr)
		if !ok {
			return nil, false, nil
		}
		sh.GroupBy = append(sh.GroupBy, name)
	}

	addAgg := func(a Agg) int {
		for i, b := range sh.Aggs {
			if b == a {
				return i
			}
		}
		sh.Aggs = append(sh.Aggs, a)
		return len(sh.Aggs) - 1
	}

	for _, it := range q.Select {
		out := OutCol{Name: selectName(it), Group: -1, Agg: -1}
		switch e := it.Expr.(type) {
		case sqlparse.ColRef:
			name, ok := resolve(e)
			if !ok {
				return nil, false, nil
			}
			gi := -1
			for i, gb := range sh.GroupBy {
				if gb == name {
					gi = i
				}
			}
			if gi < 0 {
				return nil, false, nil
			}
			out.Group = gi
		case sqlparse.FuncCall:
			a, ok := analyzeAgg(e, sch, resolve)
			if !ok {
				return nil, false, nil
			}
			out.Agg = addAgg(a)
		default:
			return nil, false, nil
		}
		sh.Out = append(sh.Out, out)
	}
	if len(sh.Out) == 0 {
		return nil, false, nil
	}

	sh.aggTok = make([]func(int32) uint64, len(sh.Aggs))
	sh.aggVal = make([]expr.Value, len(sh.Aggs))
	for i, a := range sh.Aggs {
		switch {
		case a.Distinct:
			sh.HasDistinct = true
			sh.aggTok[i] = token(g.Col(a.Col))
		case a.Fn != "count":
			v, err := expr.CompileValue(sqlparse.ColRef{Name: a.Col}, bind)
			if err != nil {
				return nil, false, nil
			}
			sh.aggVal[i] = v
		}
		if a.Fn == "min" || a.Fn == "max" {
			sh.HasMinMax = true
		}
	}
	for _, name := range sh.GroupBy {
		sh.groupTok = append(sh.groupTok, token(g.Col(name)))
	}
	if q.Where != nil {
		f, err := expr.CompileFilter(q.Where, bind)
		if err != nil {
			if sh.HasDistinct {
				return nil, false, err
			}
			return nil, false, nil
		}
		sh.filter = f
	}
	return sh, true, nil
}

// analyzeAgg validates one aggregate call: count(*) / count(col) /
// count(distinct col), and sum/avg/min/max over a numeric column.
func analyzeAgg(fc sqlparse.FuncCall, sch *storage.Schema, resolve func(sqlparse.ColRef) (string, bool)) (Agg, bool) {
	switch fc.Name {
	case "count", "sum", "avg", "min", "max":
	default:
		return Agg{}, false
	}
	if fc.Star || len(fc.Args) == 0 {
		if fc.Name != "count" || fc.Distinct {
			return Agg{}, false
		}
		return Agg{Fn: "count"}, true
	}
	if len(fc.Args) != 1 {
		return Agg{}, false
	}
	cr, ok := fc.Args[0].(sqlparse.ColRef)
	if !ok {
		return Agg{}, false
	}
	name, ok := resolve(cr)
	if !ok {
		return Agg{}, false
	}
	if fc.Distinct && fc.Name != "count" {
		return Agg{}, false
	}
	if !fc.Distinct && fc.Name != "count" && sch.Col(name).Kind == storage.String {
		// String columns have no numeric aggregate; let the normal
		// pipeline produce its own error.
		return Agg{}, false
	}
	if fc.Name == "count" && !fc.Distinct {
		// COUNT(col) counts rows in this engine (no NULLs): same as
		// count(*), keep the argument for the output name only.
		return Agg{Fn: "count", Col: name}, true
	}
	return Agg{Fn: fc.Name, Col: name, Distinct: fc.Distinct}, true
}

func selectName(it sqlparse.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// Sketchable reports whether the shape can be answered from whole-table
// sketches alone: no filter, and either a scalar count/count-distinct
// read (HLL) or a single-column count-only GROUP BY (Count-Min).
func (sh *Shape) Sketchable() (route string, ok bool) {
	if sh.filter != nil {
		return "", false
	}
	if len(sh.GroupBy) == 0 {
		for _, a := range sh.Aggs {
			if a.Fn != "count" {
				return "", false
			}
		}
		if !sh.HasDistinct {
			// count(*) alone is exact from the row count; nothing to
			// approximate.
			return "", false
		}
		return "hll", true
	}
	if len(sh.GroupBy) != 1 {
		return "", false
	}
	for _, a := range sh.Aggs {
		if a.Fn != "count" || a.Distinct {
			return "", false
		}
	}
	return "cms", true
}

// Sampleable reports whether the shape can be answered from a uniform
// row sample: distinct and min/max have no unbiased sample estimator,
// everything else scales.
func (sh *Shape) Sampleable() bool {
	return !sh.HasDistinct && !sh.HasMinMax
}

func (sh *Shape) String() string {
	return fmt.Sprintf("approx shape: table=%s groups=%d aggs=%d distinct=%t",
		sh.Table, len(sh.GroupBy), len(sh.Aggs), sh.HasDistinct)
}
