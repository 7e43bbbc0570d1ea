package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// routeKeyKinds are the key storages FuzzHashRoute draws from.
var routeKeyKinds = []string{"int", "float", "object", "dict"}

// routeKeyColumn draws an n-row key column of the kind with nulls and few
// distinct values; a Dict's table may hold codes no row uses. With views
// set, the column is a TakeView of a longer one that reads some rows as -1
// (null).
func routeKeyColumn(r *rand.Rand, kind string, n int, views bool) vector.Vector {
	base := n + 3
	nulls := make([]bool, base)
	for i := range nulls {
		nulls[i] = r.Intn(5) == 0
	}
	var col vector.Vector
	switch kind {
	case "int":
		data := make([]int64, base)
		for i := range data {
			data[i] = int64(r.Intn(7) - 3)
		}
		col = vector.NewInt(data, nulls)
	case "float":
		data := make([]float64, base)
		for i := range data {
			data[i] = []float64{0.5, 1, math.Copysign(0, -1), math.NaN(), 3}[r.Intn(5)]
		}
		col = vector.NewFloat(data, nulls)
	case "object":
		data := make([]string, base)
		for i := range data {
			data[i] = []string{"red", "NA", "blue", ""}[r.Intn(4)]
		}
		col = vector.NewObject(data, nulls)
	case "dict":
		table := []string{"red", "NA", "blue", "", "plum"}[:1+r.Intn(5)]
		codes := make([]int32, base)
		for i := range codes {
			codes[i] = int32(r.Intn(len(table)))
		}
		col = vector.NewDict(codes, table, nulls)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i + 3
		if views && r.Intn(6) == 0 {
			idx[i] = -1
		}
	}
	if views {
		return vector.TakeView(col, idx)
	}
	return col.Slice(3, base)
}

// objectCopy is a Dict key column's cells as Object storage.
func objectCopy(v vector.Vector) vector.Vector {
	data, nulls := make([]string, v.Len()), make([]bool, v.Len())
	for i := range data {
		if x := v.Value(i); x.IsNull() {
			nulls[i] = true
		} else {
			data[i] = x.Str()
		}
	}
	return vector.NewObject(data, nulls)
}

// checkRoute requires HashRoute's layout over n rows to send every row to
// exactly one bucket, the one RowKeyHashes names, and to give each bucket
// its rows in band-row order; and RouteGroupRows, over the same keys as band
// `band`, to cut each bucket's piece at those rows, labelled with positions
// band<<32 | row.
func checkRoute(t *testing.T, keys []vector.Vector, n, band, buckets int) [][]int {
	t.Helper()
	// Declared domains, so the key columns hash as stored: induction would
	// re-read a low-cardinality Object column, and "NA" in it as null.
	names, labels, domains := make([]string, len(keys)), make([]types.Value, len(keys)), make([]types.Domain, len(keys))
	for k, c := range keys {
		names[k] = fmt.Sprintf("k%d", k)
		labels[k], domains[k] = types.String(names[k]), c.Domain()
	}
	df, err := core.Build(keys, nil, labels, domains, nil)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := RowKeyHashes(df, names)
	if err != nil {
		t.Fatal(err)
	}
	rows := HashRoute(keys, n, buckets)
	if len(rows) != buckets {
		t.Fatalf("%d row lists for %d buckets", len(rows), buckets)
	}
	pieces, err := RouteGroupRows(df, expr.GroupBySpec{Keys: names, Aggs: []expr.AggSpec{{Agg: expr.AggSize}}}, band, buckets)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for b := range rows {
		pos := pieces[b].RowLabels()
		if pos.Len() != len(rows[b]) {
			t.Fatalf("bucket %d: %d rows but %d positions", b, len(rows[b]), pos.Len())
		}
		for k, i := range rows[b] {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("bucket %d: row %d out of range or routed twice", b, i)
			}
			seen[i] = true
			if want := int(hashes[i] % uint64(buckets)); b != want {
				t.Fatalf("row %d routed to bucket %d, its hash names %d", i, b, want)
			}
			if k > 0 && i <= rows[b][k-1] {
				t.Fatalf("bucket %d: rows %d then %d do not ascend", b, rows[b][k-1], i)
			}
			if p := pos.Value(k); p.IsNull() || p.Int() != int64(band)<<32|int64(i) {
				t.Fatalf("bucket %d: row %d at position %v, want band %d row %d", b, i, p, band, i)
			}
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("row %d routed to no bucket", i)
	}
	return rows
}

// TestHashRoutePastAByte routes 3,000 distinct keys into bucket counts
// either side of 256, the last whose rows' buckets HashRoute holds in a
// byte, so every bucket past it is reached.
func TestHashRoutePastAByte(t *testing.T) {
	for _, nb := range []int{255, 256, 257, 263, 1000} {
		checkRoute(t, []vector.Vector{vector.Range(0, 3000)}, 3000, 1, nb)
	}
}

// FuzzHashRoute drives the shuffle router over one to three Int, Float,
// Object and Dict key columns (nulls and views included), a band index and
// one to nine buckets — or 256 to 263, either side of the last count whose
// rows' buckets fit a byte — under the full and a narrowed hash. Besides
// checkRoute's layout, every Dict key must route as its Object copy does:
// the groupby routes a Dict key once per code and the join may meet it
// against Object keys on the other side.
func FuzzHashRoute(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(3), uint16(0), uint8(4), false, false)
	f.Add(int64(2), uint8(90), uint8(1), uint8(0), uint16(3), uint8(2), true, false)
	f.Add(int64(3), uint8(17), uint8(2), uint8(27), uint16(65535), uint8(8), false, true)
	f.Add(int64(4), uint8(0), uint8(1), uint8(5), uint16(1), uint8(0), true, true)
	f.Add(int64(5), uint8(60), uint8(0), uint8(3), uint16(9), uint8(6), true, true)
	f.Fuzz(func(t *testing.T, seed int64, rows, ncols, kinds uint8, band uint16, buckets uint8, views, narrow bool) {
		if narrow {
			defer SetRowHashMaskForTesting(0x3)()
		}
		r := rand.New(rand.NewSource(seed))
		n, nb := int(rows), 1+int(buckets)%9
		if buckets >= 248 {
			nb = int(buckets) + 8
		}
		keys := make([]vector.Vector, 1+int(ncols)%3)
		copied := make([]vector.Vector, len(keys))
		dict := false
		for k := range keys {
			kind := routeKeyKinds[(int(kinds)>>(2*k))%len(routeKeyKinds)]
			keys[k] = routeKeyColumn(r, kind, n, views)
			copied[k] = keys[k]
			if kind == "dict" {
				copied[k], dict = objectCopy(keys[k]), true
			}
		}
		rows1 := checkRoute(t, keys, n, int(band), nb)
		if !dict {
			return
		}
		rows2 := checkRoute(t, copied, n, int(band), nb)
		for b := range rows1 {
			if !slices.Equal(rows1[b], rows2[b]) {
				t.Fatalf("bucket %d: Dict keys route rows %v, their Object copy %v", b, rows1[b], rows2[b])
			}
		}
	})
}
