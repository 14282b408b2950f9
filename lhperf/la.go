package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/lagen"
	"repro/internal/storage"
)

// LA sizes: the three sparse profiles at scale 0.1 and a dense order of
// 256. SMM on hv15r is left out: at this scale one run takes about a
// second and hundreds of MB, which would dominate the mix.
const (
	laScale = 0.1
	denseN  = 256
)

var (
	laProfiles   = []string{"harbor", "hv15r", "nlp240"}
	laQueryNames = []string{"smv_harbor", "smv_hv15r", "smv_nlp240", "smm_harbor", "smm_nlp240", "dmv", "dmm"}
)

// addEngine opens a durable engine under dir/name, loads it, compacts
// it (freeze plus initial snapshot) and adds it to the dataset.
func (ds *dataset) addEngine(dir, name string, load func(*storage.Catalog) error) (*durEngine, error) {
	de := &durEngine{name: name, dir: filepath.Join(dir, name)}
	de.eng = openEngine(de.dir)
	ds.engines = append(ds.engines, de)
	err := load(de.eng.Catalog())
	if err == nil {
		err = de.eng.Compact(context.Background())
	}
	if err != nil {
		ds.close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return de, nil
}

// runLA: the paper's LA kernels as SQL over matrix relations, one
// closed-loop client, then the ingest stream (matrix entries into
// harbor) alone.
func runLA(b *bench) error {
	ds, err := b.setup(func(dir string) (*dataset, error) {
		ds := &dataset{final: finalLA}
		byName := map[string]*durEngine{}
		for k, prof := range laProfiles {
			spec, err := lagen.Profile(prof, laScale)
			if err != nil {
				ds.close()
				return nil, err
			}
			seed := b.seed + int64(k)
			de, err := ds.addEngine(dir, prof, func(cat *storage.Catalog) error {
				_, err := lagen.LoadSparse(cat, spec, seed)
				return err
			})
			if err != nil {
				return nil, err
			}
			byName[prof] = de
		}
		dense, err := ds.addEngine(dir, "dense", func(cat *storage.Catalog) error {
			return lagen.LoadDense(cat, denseN, b.seed+3)
		})
		if err != nil {
			return nil, err
		}
		harbor, _ := lagen.Profile("harbor", laScale)
		ds.target = byName["harbor"]
		ds.gen = &matrixGen{r: rand.New(rand.NewSource(b.seed + 4)), spec: harbor}
		smv := func(name string, eng *core.Engine) *query {
			return &query{name: name, sql: lagen.SMVQuery, eng: eng, split: true, keys: []string{"i"}}
		}
		smm := func(name string, eng *core.Engine) *query {
			return &query{name: name, sql: lagen.SMMQuery, eng: eng, split: true, keys: []string{"i", "j"}}
		}
		ds.queries = []*query{
			smv("smv_harbor", byName["harbor"].eng), smv("smv_hv15r", byName["hv15r"].eng),
			smv("smv_nlp240", byName["nlp240"].eng), smm("smm_harbor", byName["harbor"].eng),
			smm("smm_nlp240", byName["nlp240"].eng), smv("dmv", dense.eng), smm("dmm", dense.eng),
		}
		return ds, warm(ds.queries)
	})
	if err != nil {
		return err
	}
	for _, q := range ds.queries {
		b.op(wrap(q.name+" vs blas", setKernel(q)))
	}
	b.mark("reference checks")
	b.staticPhases(ds)
	return nil
}

// setKernel checks the query's warm answer against the BLAS kernel on
// the same matrices and installs that kernel as the query's timed
// reference.
func setKernel(q *query) error {
	cat := q.eng.Catalog()
	if q.name == "dmv" || q.name == "dmm" {
		a, x, err := lagen.DenseBuffer(cat, denseN)
		if err != nil {
			return err
		}
		n := denseN
		if q.name == "dmv" {
			y := make([]float64, n)
			q.kernel = func() time.Duration {
				t0 := time.Now()
				blas.Gemv(n, n, a, x, y)
				return time.Since(t0)
			}
			q.kernel()
			return checkVector(q.first, y)
		}
		// C = A·A through the A·Bᵀ kernel, with Bᵀ = Aᵀ.
		at := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				at[j*n+i] = a[i*n+j]
			}
		}
		c := make([]float64, n*n)
		q.kernel = func() time.Duration {
			for i := range c {
				c[i] = 0
			}
			t0 := time.Now()
			blas.GemmNT(n, n, n, a, at, c)
			return time.Since(t0)
		}
		q.kernel()
		return checkMatrix(q.first, func(i, j int) (float64, bool) { return c[i*n+j], true }, n*n)
	}
	csr, x, err := csrOf(cat)
	if err != nil {
		return err
	}
	if q.sql == lagen.SMVQuery {
		y := make([]float64, csr.Rows)
		q.kernel = func() time.Duration {
			t0 := time.Now()
			blas.SpMV(csr, x, y)
			return time.Since(t0)
		}
		q.kernel()
		return checkVector(q.first, y)
	}
	var c *blas.CSR
	q.kernel = func() time.Duration {
		t0 := time.Now()
		c = blas.SpGEMM(csr, csr)
		return time.Since(t0)
	}
	q.kernel()
	return checkMatrix(q.first, func(i, j int) (float64, bool) {
		lo, hi := c.RowPtr[i], c.RowPtr[i+1]
		for lo < hi { // binary search in the sorted row
			mid := (lo + hi) / 2
			switch col := int(c.ColIdx[mid]); {
			case col == j:
				return c.Vals[mid], true
			case col < j:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		return 0, false
	}, c.NNZ())
}

// csrOf converts the catalog's freshest matrix generation to CSR and
// gathers the vector by key.
func csrOf(cat *storage.Catalog) (*blas.CSR, []float64, error) {
	m := cat.Table("matrix").Live()
	v := cat.Table("vec").Live()
	n := v.NumRows
	mi, mj, mv := m.Col("i").Ints, m.Col("j").Ints, m.Col("v").Floats
	i32 := make([]int32, m.NumRows)
	j32 := make([]int32, m.NumRows)
	for r := 0; r < m.NumRows; r++ {
		i32[r], j32[r] = int32(mi[r]), int32(mj[r])
	}
	coo, err := blas.NewCOO(n, n, i32, j32, mv[:m.NumRows])
	if err != nil {
		return nil, nil, err
	}
	x := make([]float64, n)
	vk, vx := v.Col("k").Ints, v.Col("x").Floats
	for r := 0; r < n; r++ {
		x[vk[r]] = vx[r]
	}
	return blas.CompressCOO(coo), x, nil
}

// checkVector compares an (i, y) answer with a reference vector.
func checkVector(res *exec.Result, y []float64) error {
	if res.NumRows != len(y) {
		return fmt.Errorf("answer has %d rows, want %d", res.NumRows, len(y))
	}
	for r := 0; r < res.NumRows; r++ {
		i := int(res.Cols[0].Float(r))
		if got := res.Cols[1].Float(r); !near(got, y[i]) {
			return fmt.Errorf("y[%d] = %v, want %v", i, got, y[i])
		}
	}
	return nil
}

// checkMatrix compares an (i, j, v) answer with a reference matrix
// holding nnz entries.
func checkMatrix(res *exec.Result, at func(i, j int) (float64, bool), nnz int) error {
	if res.NumRows != nnz {
		return fmt.Errorf("answer has %d entries, want %d", res.NumRows, nnz)
	}
	for r := 0; r < res.NumRows; r++ {
		i, j := int(res.Cols[0].Float(r)), int(res.Cols[1].Float(r))
		want, ok := at(i, j)
		if got := res.Cols[2].Float(r); !ok || !near(got, want) {
			return fmt.Errorf("c[%d][%d] = %v, want %v", i, j, got, want)
		}
	}
	return nil
}

// finalLA: after recovery and compaction, SMV over the matrix that
// received the ingest stream must match the BLAS kernel over the same
// (base plus ingested) entries.
func finalLA(engines map[string]*core.Engine) error {
	e := engines["harbor"]
	res, err := e.QueryWithContext(context.Background(), lagen.SMVQuery, core.QueryOptions{})
	if err != nil {
		return err
	}
	csr, x, err := csrOf(e.Catalog())
	if err != nil {
		return err
	}
	y := make([]float64, csr.Rows)
	blas.SpMV(csr, x, y)
	return wrap("smv_harbor after recovery vs blas", checkVector(res, y))
}
