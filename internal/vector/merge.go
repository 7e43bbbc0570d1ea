package vector

import (
	"slices"

	"repro/internal/types"
)

// Run merging: the kernels beneath the range shuffle's merge. A bucket
// receives one sorted run per input band, each usually a selection view
// over its band; MergeRuns orders the runs' rows without moving them, and
// TakeRuns builds each output column with one typed take that reads every
// run through its base, so a merged row is copied once.

// RunRow names row Row of run Run.
type RunRow struct{ Run, Row int32 }

// MergeRuns merges sorted runs — runs[r][k] is key k of run r, lens[r] its
// row count, each run sorted under the keys, descending where desc[k] —
// into one order: entry p is the row that sorts p-th. Equal keys resolve to
// the earlier run, then the earlier row, so the merge of a stable sort's
// runs taken in input order is that stable sort. The runs' words are
// compared when they compare across runs (runKeys); otherwise the cells
// are, through CompareRows on the views' bases.
func MergeRuns(runs [][]Vector, lens []int, desc []bool) []RunRow {
	n := 0
	for _, l := range lens {
		n += l
	}
	order := make([]RunRow, 0, n)
	for r, l := range lens {
		for i := range l {
			order = append(order, RunRow{int32(r), int32(i)})
		}
	}
	if len(runs) < 2 {
		return order
	}
	return mergeSegments(order, lens, runOrder(runs, lens, desc))
}

// runOrder compares two runs' rows: by their word tuples when the runs'
// words compare across runs (runKeys), each run's filled once, and by
// their cells through the views' bases otherwise.
func runOrder(runs [][]Vector, lens []int, desc []bool) func(a, b RunRow) int {
	if ks, ok := runKeys(runs, desc); ok {
		m := len(ks[0].cols)
		words := make([][]uint64, len(runs))
		for r, k := range ks {
			words[r] = make([]uint64, lens[r]*m)
			k.Fill(words[r])
		}
		return func(a, b RunRow) int {
			i, j := int(a.Row)*m, int(b.Row)*m
			return slices.Compare(words[a.Run][i:i+m], words[b.Run][j:j+m])
		}
	}
	cells := make([][]cellCol, len(runs))
	for r, keys := range runs {
		cells[r] = make([]cellCol, len(keys))
		for k, v := range keys {
			cells[r][k].base, cells[r][k].idx = unview(v)
		}
	}
	return func(a, b RunRow) int {
		ca, cb := cells[a.Run], cells[b.Run]
		for k := range ca {
			c := ca[k].compare(int(a.Row), cb[k], int(b.Row))
			if desc[k] {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// mergeSegments merges the sorted segments of order, whose lengths are
// lens, under cmp: adjacent segments merge pairwise, ties to the left, until
// one remains.
func mergeSegments(order []RunRow, lens []int, cmp func(a, b RunRow) int) []RunRow {
	orderTo := make([]RunRow, len(order))
	for len(lens) > 1 {
		var merged []int
		at := 0
		for s := 0; s < len(lens); s += 2 {
			lo, mid, hi := at, at+lens[s], at+lens[s]
			if s+1 < len(lens) {
				hi += lens[s+1]
			}
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				// Take the right entry only when it sorts strictly first.
				if cmp(order[j], order[i]) < 0 {
					orderTo[o] = order[j]
					j++
				} else {
					orderTo[o] = order[i]
					i++
				}
				o++
			}
			o += copy(orderTo[o:], order[i:mid])
			copy(orderTo[o:], order[j:hi])
			merged = append(merged, hi-lo)
			at = hi
		}
		order, orderTo = orderTo, order
		lens = merged
	}
	return order
}

// cellCol reads a column's cells through at most one selection view: entry
// i is base entry idx[i], -1 null, or base entry i when idx is nil. A chunk
// reads its flat copy (unview).
type cellCol struct {
	base Vector
	idx  []int
}

// compare orders entry i of c against entry j of o as CompareRows orders
// the cells, reading both from their bases.
func (c cellCol) compare(i int, o cellCol, j int) int {
	if c.idx != nil {
		i = c.idx[i]
	}
	if o.idx != nil {
		j = o.idx[j]
	}
	an, bn := i < 0 || c.base.IsNull(i), j < 0 || o.base.IsNull(j)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	return CompareRows(c.base, i, o.base, j)
}

// TakeRuns returns the vector whose entry p is entry at[p].Row of
// vs[at[p].Run], reading views and chunks through their storage. When every
// input's storage is one kind — a Dict's one category table — it copies
// storage with no boxing; otherwise it builds boxed cells in the domain
// Concat gives the inputs.
func TakeRuns(vs []Vector, at []RunRow) Vector {
	return (&gather{vs: vs, mode: runs, at: at}).run()
}

// concatDomain is the domain Concat builds its inputs in when their storage
// differs: the one domain of the inputs that hold a non-null cell, Object
// when they disagree, and the first input's domain when none holds one. An
// input of nulls only has no say: a bucket whose one group has a null key
// finalizes that key as an untyped null.
func concatDomain(vs []Vector) types.Domain {
	if len(vs) == 1 {
		return vs[0].Domain() // without counting the nulls of a Take's one input
	}
	dom := types.Unspecified
	for _, v := range vs {
		switch {
		case v.Len() == 0 || NullCount(v) == v.Len():
		case dom == types.Unspecified:
			dom = v.Domain()
		case v.Domain() != dom:
			dom = types.Object
		}
	}
	if dom == types.Unspecified {
		return vs[0].Domain()
	}
	return dom
}
