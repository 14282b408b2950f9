package main

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pairwise"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// tpchSF is the TPC-H scale of bi_tpch and htap_ingest (≈300k
// lineitems): large enough that per-query trie building (compile) is
// most of q1/q3, small enough for several set-ups per run.
const tpchSF = 0.05

// groupCols lists each TPC-H query's group columns, in the key order
// the pairwise reference engine uses.
var groupCols = map[string][]string{
	"q1":  {"l_returnflag", "l_linestatus"},
	"q3":  {"l_orderkey", "o_orderdate", "o_shippriority"},
	"q5":  {"n_name"},
	"q6":  {},
	"q8":  {"o_year"},
	"q9":  {"n_name", "o_year"},
	"q10": {"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
}

// buildTPCH generates and loads the TPC-H tables into a fresh durable
// engine and compacts it, which freezes the catalog and writes the
// initial snapshot.
func buildTPCH(dir string, seed int64) (*durEngine, tpch.Sizes, error) {
	de := &durEngine{name: "tpch", dir: filepath.Join(dir, "tpch")}
	de.eng = openEngine(de.dir)
	sz, err := tpch.Populate(de.eng.Catalog(), tpchSF, seed)
	if err == nil {
		err = de.eng.Compact(context.Background())
	}
	if err != nil {
		closeEngine(de.eng)
		return nil, sz, err
	}
	return de, sz, nil
}

func tpchQuery(eng *core.Engine, name string) *query {
	return &query{name: name, sql: tpch.Queries[name], eng: eng, split: true, keys: groupCols[name]}
}

// pairwiseCheck compares an answer to the pairwise hash-join engine
// run over the same catalog.
func pairwiseCheck(cat *storage.Catalog, name string, res *exec.Result) error {
	want, err := pairwise.New(cat).RunTPCH(name)
	if err != nil {
		return err
	}
	return wrap(name+" vs pairwise", sameRows(rowsOf(res, groupCols[name]), want.Data))
}

// runBI: a static TPC-H database; one closed-loop client round-robins
// the seven queries, then the ingest stream runs alone.
func runBI(b *bench) error {
	ds, err := b.setup(func(dir string) (*dataset, error) {
		de, sz, err := buildTPCH(dir, b.seed)
		if err != nil {
			return nil, err
		}
		ds := &dataset{engines: []*durEngine{de}, target: de,
			gen: newLineitemGen(b.seed+1, sz), final: finalTPCH}
		for _, name := range tpch.QueryNames {
			ds.queries = append(ds.queries, tpchQuery(de.eng, name))
		}
		return ds, warm(ds.queries)
	})
	if err != nil {
		return err
	}
	cat := ds.target.eng.Catalog()
	for _, q := range ds.queries {
		b.op(pairwiseCheck(cat, q.name, q.first))
	}
	b.mark("reference checks")
	b.staticPhases(ds)
	return nil
}

// finalTPCH: after recovery and compaction, q1, q3 and q6 must match
// the pairwise engine over the engine's full (base plus ingested) data.
func finalTPCH(engines map[string]*core.Engine) error {
	e := engines["tpch"]
	ref, err := liveCatalog(e.Catalog())
	if err != nil {
		return err
	}
	for _, name := range []string{"q1", "q3", "q6"} {
		res, err := e.QueryWithContext(context.Background(), tpch.Queries[name], core.QueryOptions{})
		if err != nil {
			return wrap(name, err)
		}
		if err := pairwiseCheck(ref, name, res); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	return nil
}

// liveCatalog copies the freshest generation of every table into a
// plain catalog, which the reference engines read.
func liveCatalog(src *storage.Catalog) (*storage.Catalog, error) {
	dst := storage.NewCatalog()
	for _, name := range src.Tables() {
		g := src.Table(name).Live()
		t, err := dst.Create(g.Schema)
		if err != nil {
			return nil, err
		}
		data := map[string]interface{}{}
		for _, c := range g.Cols {
			switch c.Def.Kind {
			case storage.String:
				data[c.Def.Name] = c.Strs[:g.NumRows]
			case storage.Float64:
				data[c.Def.Name] = c.Floats[:g.NumRows]
			default:
				data[c.Def.Name] = c.Ints[:g.NumRows]
			}
		}
		if err := t.SetColumnData(data); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
