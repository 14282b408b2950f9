package approx

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/refeval"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// fixtureSchema covers every column kind the tier tokenizes: int and
// string keys, int/date/string/float annotations, plus a row-index
// column.
var fixtureSchema = storage.Schema{Name: "t", Cols: []storage.ColumnDef{
	{Name: "k", Kind: storage.Int64, Role: storage.Key, Domain: "dk"},
	{Name: "ks", Kind: storage.String, Role: storage.Key, Domain: "ds"},
	{Name: "v", Kind: storage.Int64, Role: storage.Annotation},
	{Name: "d", Kind: storage.Date, Role: storage.Annotation},
	{Name: "s", Kind: storage.String, Role: storage.Annotation},
	{Name: "f", Kind: storage.Float64, Role: storage.Annotation},
	{Name: "id", Kind: storage.Int64, Role: storage.Annotation},
}}

// fixtureRows returns n rows over small random domains, salted with
// the edge values tokens must keep apart (MaxInt64 vs MaxInt64-1, which
// are equal as float64) or fold together (-0.0/+0.0, NaN payloads), and
// the empty string.
func fixtureRows(n int) [][]any {
	rng := rand.New(rand.NewSource(7))
	strs := []string{"", "a", "bb", "ccc"}
	rows := make([][]any, n)
	for i := range rows {
		v := int64(rng.Intn(21) - 10)
		switch {
		case i%97 == 5:
			v = math.MaxInt64
		case i%89 == 7:
			v = math.MaxInt64 - 1
		}
		f := float64(rng.Intn(9)-4) / 2
		switch {
		case i%13 == 3:
			f = math.Copysign(0, -1)
		case i%17 == 4:
			f = math.Float64frombits(0x7ff8000000000001)
		case i%19 == 6:
			f = math.NaN()
		}
		rows[i] = []any{
			int64(rng.Intn(50)),
			fmt.Sprintf("s%02d", rng.Intn(20)),
			v,
			int64(9000 + rng.Intn(30)),
			strs[rng.Intn(len(strs))],
			f,
			int64(i),
		}
	}
	return rows
}

// fixture loads base rows before freeze and delta rows after it. It
// returns the table handle (whose arrays hold the base rows) and the
// snapshot generation folding the delta suffix onto them.
func fixture(t *testing.T, base, delta int) (handle, gen *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog()
	tab, err := cat.Create(fixtureSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range fixtureRows(base + delta) {
		if i == base {
			if err := cat.Freeze(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.Append(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Freeze(); err != nil {
		t.Fatal(err)
	}
	return tab, cat.Snapshot().Resolve(tab)
}

// stateHash fingerprints a sketch's whole internal state (fmt prints
// unexported fields).
func stateHash(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", v)
	return h.Sum64()
}

// TestSummaryGolden pins the reservoir's sampled row positions and every
// column's HLL and Count-Min state for one seed. The values were
// recorded with the earlier reservoir that held decoded []any rows, so
// they prove the row-id reservoir keeps the same sample and the typed
// column hashes build the same sketches.
func TestSummaryGolden(t *testing.T) {
	wantPos := []int32{573, 314, 955, 917, 755, 707, 196, 198, 394, 9, 844, 548, 461, 874, 122, 233,
		651, 349, 985, 688, 516, 228, 190, 23, 762, 176, 119, 214, 706, 306, 528, 809,
		666, 697, 129, 88, 143, 920, 184, 856, 966, 274, 880, 297, 457, 912, 621, 500,
		48, 563, 792, 533, 586, 817, 359, 805, 91, 952, 441, 872, 720, 675, 504, 213}
	wantState := map[string][2]uint64{
		"k":  {0x7be3c3678591a55c, 0xa15777cb2e1cb8b3},
		"ks": {0xb64b9045e782a2c0, 0x3e5e8829b179ca06},
		"v":  {0xedcf688b392676c7, 0x8896caf500310939},
		"d":  {0xc9b4c54f88b85ad7, 0xb928ce6a4a2681b3},
		"s":  {0x20b0f910e63e4a22, 0x94cd33579a31dced},
		"f":  {0x63f7dd38d1d6eb57, 0xcf730b4cbc282dcb},
		"id": {0x8cf8460198059a0d, 0x84b8026539cce9d1},
	}
	handle, g := fixture(t, 600, 400)

	// Incremental: fold the base rows, then the delta suffix.
	inc := NewSummary(&fixtureSchema, 64)
	inc.Extend(handle, 0)
	inc.Extend(g, 1)
	// From scratch over the final generation.
	fresh := NewSummary(&fixtureSchema, 64)
	fresh.Extend(g, 1)

	for name, s := range map[string]*Summary{"incremental": inc, "fresh": fresh} {
		if s.Rows != 1000 {
			t.Fatalf("%s: covers %d rows, want 1000", name, s.Rows)
		}
		if got := s.SampleRows(); !slices.Equal(got, wantPos) {
			t.Errorf("%s: sampled rows\n got %v\nwant %v", name, got, wantPos)
		}
		for ci, col := range fixtureSchema.Cols {
			got := [2]uint64{stateHash(*s.HLLs[ci]), stateHash(*s.CMSs[ci])}
			if got != wantState[col.Name] {
				t.Errorf("%s: column %s sketch state %#x, want %#x", name, col.Name, got, wantState[col.Name])
			}
		}
	}
}

// exactQueries exercise every token kind as a distinct argument and as
// a group column, with and without filters.
var exactQueries = []string{
	"SELECT count(distinct k), count(distinct ks), count(distinct v), count(distinct d), count(distinct s), count(distinct f), count(*) FROM t",
	"SELECT k, count(*), count(distinct s) FROM t GROUP BY k",
	"SELECT ks, count(distinct f), sum(f), min(v), max(d) FROM t GROUP BY ks",
	"SELECT v, count(*), count(distinct k) FROM t GROUP BY v",
	"SELECT f, count(*), avg(v), count(distinct d) FROM t GROUP BY f",
	"SELECT s, d, count(distinct ks) FROM t WHERE s <> 'bb' AND d >= 9010 GROUP BY s, d",
	"SELECT count(distinct s), count(*) FROM t WHERE s = ''",
	"SELECT s, count(distinct v) FROM t WHERE s LIKE '%c%' OR k IN (1, 2, 3) GROUP BY s",
	"SELECT count(distinct v), sum(v), avg(f), min(f) FROM t WHERE k < 0",
	"SELECT ks, count(distinct v) FROM t WHERE ks >= 's03' AND ks < 's07' GROUP BY ks",
	"SELECT s, count(distinct f) FROM t WHERE f NOT BETWEEN -1 AND 1 GROUP BY s",
}

func TestExactScanMatchesReference(t *testing.T) {
	_, g := fixture(t, 600, 400)
	rels := map[string]*refeval.Relation{"t": {Schema: fixtureSchema, Rows: fixtureRows(1000)}}
	for _, sql := range exactQueries {
		checkExact(t, sql, g, rels)
	}
}

func TestExactScanEmptyTable(t *testing.T) {
	_, g := fixture(t, 0, 0)
	rels := map[string]*refeval.Relation{"t": {Schema: fixtureSchema}}
	for _, sql := range exactQueries {
		checkExact(t, sql, g, rels)
	}
}

// TestTokensSeparateWideInts pins the case float64 identity would get
// wrong: MaxInt64 and MaxInt64-1 are one float64 but two values.
func TestTokensSeparateWideInts(t *testing.T) {
	_, g := fixture(t, 200, 0)
	res := evalExact(t, "SELECT count(distinct v) FROM t WHERE v > 100", g)
	if got := res.Cols[0].F64[0]; got != 2 {
		t.Fatalf("count(distinct v) over {MaxInt64, MaxInt64-1} = %v, want 2", got)
	}
	res = evalExact(t, "SELECT count(distinct f) FROM t WHERE f = 0", g)
	if got := res.Cols[0].F64[0]; got != 1 {
		t.Fatalf("count(distinct f) over {-0.0, +0.0} = %v, want 1", got)
	}
}

// TestAnalyzeDeclinesWhatExprRejects: a WHERE internal/expr cannot
// compile sends a plain aggregate to the normal engine, and fails a
// distinct shape (which the normal engine cannot run) with expr's error.
func TestAnalyzeDeclinesWhatExprRejects(t *testing.T) {
	_, g := fixture(t, 50, 0)
	const where = " FROM t WHERE s < v"
	if sh, ok, err := Analyze(mustParse(t, "SELECT count(*)"+where), g); sh != nil || ok || err != nil {
		t.Fatalf("plain aggregate: got (%v, %v, %v), want a silent decline", sh, ok, err)
	}
	if _, ok, err := Analyze(mustParse(t, "SELECT count(distinct k)"+where), g); ok || err == nil || !strings.HasPrefix(err.Error(), "expr:") {
		t.Fatalf("distinct shape: got (%v, %v), want expr's error", ok, err)
	}
}

func mustParse(t *testing.T, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return q
}

func evalExact(t *testing.T, sql string, g *storage.Table) *exec.Result {
	t.Helper()
	sh, ok, err := Analyze(mustParse(t, sql), g)
	if !ok || err != nil {
		t.Fatalf("%s: Analyze = (%v, %v)", sql, ok, err)
	}
	return EvalScan(sh)
}

func checkExact(t *testing.T, sql string, g *storage.Table, rels map[string]*refeval.Relation) {
	t.Helper()
	res := evalExact(t, sql, g)
	want, err := refeval.Eval(sql, rels)
	if err != nil {
		t.Fatalf("%s: reference: %v", sql, err)
	}
	var got, exp []string
	for r := 0; r < res.NumRows; r++ {
		cells := make([]string, len(res.Cols))
		for ci, c := range res.Cols {
			switch c.Kind {
			case exec.KindString:
				cells[ci] = cellString(c.Str[r])
			case exec.KindFloat:
				cells[ci] = cellString(c.F64[r])
			default:
				cells[ci] = cellString(c.I64[r])
			}
		}
		got = append(got, strings.Join(cells, "|"))
	}
	for r := 0; r < want.NumRows; r++ {
		cells := make([]string, len(want.Cols))
		for ci, c := range want.Cols {
			cells[ci] = cellString(c.Vals[r])
		}
		exp = append(exp, strings.Join(cells, "|"))
	}
	slices.Sort(got)
	slices.Sort(exp)
	if !slices.Equal(got, exp) {
		t.Errorf("%s:\n got %q\nwant %q", sql, got, exp)
	}
}

// cellString renders a cell exactly: floats by their bits (after
// folding -0.0 and NaN payloads), so equal strings mean equal cells.
func cellString(v any) string {
	switch x := v.(type) {
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case string:
		return "s" + strconv.Quote(x)
	case float64:
		if math.IsNaN(x) {
			return "fNaN"
		}
		if x == 0 {
			x = 0
		}
		return "f" + strconv.FormatFloat(x, 'x', -1, 64)
	}
	return fmt.Sprintf("?%T", v)
}
