package sketch

// Reservoir is algorithm-R uniform row sampling (Vitter 1985) with a
// seeded splitmix64 RNG: after n observations each row is retained with
// probability k/n, independent of arrival order, and two reservoirs fed
// the same stream under the same seed are identical. It holds row ids,
// not row values: the caller reads sampled rows through its own
// columnar arrays. Not safe for concurrent mutation.
type Reservoir struct {
	k    int
	n    uint64
	rows []int32
	rng  uint64
}

// NewReservoir returns an empty reservoir holding at most k row ids.
func NewReservoir(k int, seed uint64) *Reservoir {
	return &Reservoir{k: k, rows: make([]int32, 0, min(k, 1024)), rng: splitmix64(seed | 1)}
}

func (r *Reservoir) next() uint64 {
	r.rng = splitmix64(r.rng)
	return r.rng
}

// Add observes one row id.
func (r *Reservoir) Add(row int32) {
	r.n++
	if len(r.rows) < r.k {
		r.rows = append(r.rows, row)
		return
	}
	if j := r.next() % r.n; j < uint64(r.k) {
		r.rows[j] = row
	}
}

// Rows returns the sampled row ids in slot order. The slice is owned by
// the reservoir; callers must copy it before retaining it across Adds.
func (r *Reservoir) Rows() []int32 { return r.rows }

// N reports the total number of rows observed.
func (r *Reservoir) N() uint64 { return r.n }

// Scale is the per-sample-row multiplicity N/|sample| (1 when the whole
// stream fit in the reservoir).
func (r *Reservoir) Scale() float64 {
	if len(r.rows) == 0 {
		return 1
	}
	return float64(r.n) / float64(len(r.rows))
}

// Cap reports the reservoir capacity k.
func (r *Reservoir) Cap() int { return r.k }
