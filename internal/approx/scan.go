package approx

import (
	"math"

	"repro/internal/exec"
	"repro/internal/sketch"
	"repro/internal/storage"
)

// token returns col's per-row identity token: two rows get equal
// tokens exactly when the engine groups their values together. Key
// columns and string annotations use their dictionary codes, int and
// date annotations their raw values (float64 would merge neighbours
// past 2^53), and floats their canonical bits (-0.0 → +0.0, one NaN).
func token(col *storage.Column) func(row int32) uint64 {
	switch {
	case col.Def.Role == storage.Key:
		codes := col.KeyCodes()
		return func(row int32) uint64 { return uint64(codes[row]) }
	case col.Def.Kind == storage.String:
		codes := col.AnnCodes()
		return func(row int32) uint64 { return uint64(codes[row]) }
	case col.Def.Kind == storage.Float64:
		fs := col.Floats
		return func(row int32) uint64 { return sketch.CanonFloatBits(fs[row]) }
	default:
		ints := col.Ints
		return func(row int32) uint64 { return uint64(ints[row]) }
	}
}

type groupAcc struct {
	row    int32 // first row seen: the source of the group's key values
	rows   float64
	accs   []float64
	counts []float64
	sets   []map[uint64]struct{}
	// accsSq/maxAbs track Σv² and max|v| per sum/avg aggregate — free on
	// the exact path, and exactly what the sample route's CLT bounds need.
	accsSq []float64
	maxAbs []float64
}

// over runs the shape's filter/group/accumulate loop over the given row
// ids of its generation (nil means every row) and returns the groups in
// first-seen order.
func (sh *Shape) over(rows []int32) []*groupAcc {
	n := len(rows)
	if rows == nil {
		n = sh.g.NumRows
	}
	groups := map[string]*groupAcc{}
	var order []*groupAcc
	key := make([]byte, 8*len(sh.groupTok))
	for i := 0; i < n; i++ {
		ri := int32(i)
		if rows != nil {
			ri = rows[i]
		}
		if sh.filter != nil && !sh.filter(ri) {
			continue
		}
		for j, tok := range sh.groupTok {
			putToken(key[8*j:], tok(ri))
		}
		g := groups[string(key)]
		if g == nil {
			g = newGroupAcc(sh, ri)
			groups[string(key)] = g
			order = append(order, g)
		}
		g.rows++
		for i, a := range sh.Aggs {
			if a.Distinct {
				g.sets[i][sh.aggTok[i](ri)] = struct{}{}
				continue
			}
			switch a.Fn {
			case "count":
				g.accs[i]++
			case "sum", "avg":
				v := sh.aggVal[i](ri)
				g.accs[i] += v
				g.accsSq[i] += v * v
				g.counts[i]++
				if av := math.Abs(v); av > g.maxAbs[i] {
					g.maxAbs[i] = av
				}
			case "min":
				if v := sh.aggVal[i](ri); v < g.accs[i] {
					g.accs[i] = v
				}
			case "max":
				if v := sh.aggVal[i](ri); v > g.accs[i] {
					g.accs[i] = v
				}
			}
		}
	}
	return order
}

func putToken(b []byte, t uint64) {
	for i := range 8 {
		b[i] = byte(t >> (8 * i))
	}
}

func newGroupAcc(sh *Shape, row int32) *groupAcc {
	n := len(sh.Aggs)
	g := &groupAcc{row: row, accs: make([]float64, n), counts: make([]float64, n), sets: make([]map[uint64]struct{}, n), accsSq: make([]float64, n), maxAbs: make([]float64, n)}
	for i, a := range sh.Aggs {
		switch a.Fn {
		case "min":
			g.accs[i] = math.Inf(1)
		case "max":
			g.accs[i] = math.Inf(-1)
		}
		if a.Distinct {
			g.sets[i] = map[uint64]struct{}{}
		}
	}
	return g
}

// finals computes the output value of every aggregate for one group,
// applying the engine's scalar conventions (±Inf→0 on empty, avg =
// sum/count incl. 0/0 = NaN).
func (sh *Shape) finals(g *groupAcc) []float64 {
	out := make([]float64, len(sh.Aggs))
	for i, a := range sh.Aggs {
		v := g.accs[i]
		if a.Distinct {
			v = float64(len(g.sets[i]))
		}
		if g.rows == 0 && math.IsInf(v, 0) {
			v = 0
		}
		if a.Fn == "avg" {
			v = v / g.counts[i]
		}
		out[i] = v
	}
	return out
}

// EvalScan evaluates the shape exactly over every row of its
// generation: the engine's COUNT(DISTINCT) baseline (a code-token scan)
// and the approximate tier's exact fallback route.
func EvalScan(sh *Shape) *exec.Result {
	groups := sh.over(nil)
	if len(sh.GroupBy) == 0 && len(groups) == 0 {
		// Scalar convention: one all-zero aggregate row.
		groups = append(groups, newGroupAcc(sh, -1))
	}
	res := sh.newResult()
	for _, g := range groups {
		sh.appendRow(res, g.row, sh.finals(g))
	}
	return res
}

// newResult allocates the typed output columns for a shape.
func (sh *Shape) newResult() *exec.Result {
	res := &exec.Result{}
	for _, out := range sh.Out {
		col := &exec.Column{Name: out.Name, Kind: exec.KindFloat}
		if out.Group >= 0 {
			switch sh.g.Schema.Col(sh.GroupBy[out.Group]).Kind {
			case storage.Float64:
				col.Kind = exec.KindFloat
			case storage.String:
				col.Kind = exec.KindString
			default:
				col.Kind = exec.KindInt
			}
		}
		res.Cols = append(res.Cols, col)
	}
	return res
}

// appendRow appends one output row: group values read from the
// generation at row (floats folded to their canonical value), and the
// finished aggregate values.
func (sh *Shape) appendRow(res *exec.Result, row int32, finals []float64) {
	for ci, out := range sh.Out {
		col := res.Cols[ci]
		if out.Group < 0 {
			col.F64 = append(col.F64, finals[out.Agg])
			continue
		}
		src := sh.g.Col(sh.GroupBy[out.Group])
		switch col.Kind {
		case exec.KindFloat:
			col.F64 = append(col.F64, math.Float64frombits(sketch.CanonFloatBits(src.Floats[row])))
		case exec.KindString:
			col.Str = append(col.Str, src.Strs[row])
		default:
			col.I64 = append(col.I64, src.Ints[row])
		}
	}
	res.NumRows++
}
