package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/lagen"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Every input the engine receives is generated here or by the dataset
// generators (tpch.Populate, lagen), all seeded from --seed.

var shipmodes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

func mustDay(s string) int64 {
	d, err := sqlparse.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return int64(d)
}

var (
	dayStart  = mustDay("1992-01-01")
	dayEnd    = mustDay("1998-08-02")
	dayStatus = mustDay("1995-06-17")
)

// rowGen produces the ingest stream: batches of rows for one table,
// deterministic for a seed.
type rowGen interface {
	table() string
	batch(n int) [][]interface{}
}

// lineitemGen draws lineitem rows with the distributions tpch.Populate
// uses, referencing existing orders, parts and suppliers so the new
// rows join like the base data.
type lineitemGen struct {
	r  *rand.Rand
	sz tpch.Sizes
}

func newLineitemGen(seed int64, sz tpch.Sizes) *lineitemGen {
	return &lineitemGen{r: rand.New(rand.NewSource(seed)), sz: sz}
}

func (g *lineitemGen) table() string { return "lineitem" }

func (g *lineitemGen) batch(n int) [][]interface{} {
	r := g.r
	rows := make([][]interface{}, n)
	for k := range rows {
		pk := int64(r.Intn(g.sz.Part) + 1)
		sk := (pk+int64(r.Intn(4))*int64(g.sz.Supplier/4+1))%int64(g.sz.Supplier) + 1
		qty := float64(r.Intn(50) + 1)
		price := qty * (900 + float64(pk%200000)/10) / 10
		od := dayStart + int64(r.Intn(int(dayEnd-dayStart-121)))
		ship := od + int64(r.Intn(121)+1)
		commit := od + int64(r.Intn(91)+30)
		rcpt := ship + int64(r.Intn(30)+1)
		flag := "N"
		if rcpt <= dayStatus {
			flag = []string{"R", "A"}[r.Intn(2)]
		}
		stat := "O"
		if ship <= dayStatus {
			stat = "F"
		}
		rows[k] = []interface{}{
			int64(r.Intn(g.sz.Orders) + 1), pk, sk, int64(r.Intn(7) + 1),
			qty, price, float64(r.Intn(11)) / 100, float64(r.Intn(9)) / 100,
			flag, stat, ship, commit, rcpt, shipmodes[r.Intn(len(shipmodes))],
		}
	}
	return rows
}

// matrixGen draws (i, j, v) entries inside a sparse profile's band.
type matrixGen struct {
	r    *rand.Rand
	spec lagen.SparseSpec
}

func (g *matrixGen) table() string { return "matrix" }

func (g *matrixGen) batch(n int) [][]interface{} {
	rows := make([][]interface{}, n)
	for k := range rows {
		i := g.r.Intn(g.spec.N)
		j := i + g.r.Intn(2*g.spec.Bandwidth+1) - g.spec.Bandwidth
		if j < 0 {
			j = 0
		}
		if j >= g.spec.N {
			j = g.spec.N - 1
		}
		rows[k] = []interface{}{int64(i), int64(j), g.r.NormFloat64()}
	}
	return rows
}

// checksum hashes values of the kinds storage columns and ingest rows
// hold, so tests can compare generated inputs across seeds.
type checksum struct{ h hash.Hash64 }

func newChecksum() *checksum { return &checksum{h: fnv.New64a()} }

func (c *checksum) add(v interface{}) {
	var b [8]byte
	switch x := v.(type) {
	case int64:
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		c.h.Write(b[:])
	case float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		c.h.Write(b[:])
	case string:
		c.h.Write([]byte(x))
		c.h.Write([]byte{0})
	default:
		panic(fmt.Sprintf("checksum: unsupported %T", v))
	}
}

func (c *checksum) sum() uint64 { return c.h.Sum64() }

// catalogChecksum hashes every column of every table of a catalog, in
// creation order.
func catalogChecksum(cat *storage.Catalog) uint64 {
	c := newChecksum()
	for _, name := range cat.Tables() {
		c.add(name)
		for _, col := range cat.Table(name).Live().Cols {
			for _, v := range col.Ints {
				c.add(v)
			}
			for _, v := range col.Floats {
				c.add(v)
			}
			for _, v := range col.Strs {
				c.add(v)
			}
		}
	}
	return c.sum()
}

// rowsChecksum hashes ingest rows.
func rowsChecksum(rows [][]interface{}) uint64 {
	c := newChecksum()
	for _, row := range rows {
		for _, v := range row {
			c.add(v)
		}
	}
	return c.sum()
}
