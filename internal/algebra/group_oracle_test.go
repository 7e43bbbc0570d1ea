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

// oracleKeyKinds are the key shapes the oracle tests group on. The Dict
// kinds differ in where each frame's category table comes from: one table
// shared by every frame, or a table (in its own order) per frame. The last
// two change the key's storage between frames: Int in even frames and Float
// (some integral) in odd ones, or Object in even frames and Dict in odd ones.
var oracleKeyKinds = []string{"dict-shared", "dict-own", "int", "float", "object", "datetime", "bool", "int+object", "none", "int-float", "object-dict"}

// oracleAggs covers every typed kind over Int, Float, Int-then-Float ("mv"),
// Object, Bool and Datetime storage and over the whole row, plus a kind
// kept in an Accumulator (std) and COLLECT.
func oracleAggs() []expr.AggSpec {
	aggs := []expr.AggSpec{
		{Col: "iv", Agg: expr.AggCount}, {Col: "fv", Agg: expr.AggCount}, {Col: "sv", Agg: expr.AggCount},
		{Agg: expr.AggCount}, {Agg: expr.AggSize}, {Col: "fv", Agg: expr.AggSize},
		{Col: "iv", Agg: expr.AggSum}, {Col: "fv", Agg: expr.AggSum}, {Col: "mv", Agg: expr.AggSum},
		{Col: "bv", Agg: expr.AggSum}, {Agg: expr.AggSum},
		{Col: "iv", Agg: expr.AggMean}, {Col: "fv", Agg: expr.AggMean}, {Col: "mv", Agg: expr.AggMean},
		{Col: "iv", Agg: expr.AggMin}, {Col: "fv", Agg: expr.AggMin}, {Col: "mv", Agg: expr.AggMin},
		{Col: "sv", Agg: expr.AggMin}, {Col: "tv", Agg: expr.AggMin},
		{Col: "iv", Agg: expr.AggMax}, {Col: "fv", Agg: expr.AggMax}, {Col: "mv", Agg: expr.AggMax},
		{Col: "sv", Agg: expr.AggMax}, {Col: "bv", Agg: expr.AggMax},
		{Col: "fv", Agg: expr.AggStd}, {Col: "mv", Agg: expr.AggStd},
		{Agg: expr.AggCollect},
	}
	for k := range aggs {
		aggs[k].As = fmt.Sprintf("a%d", k)
	}
	return aggs
}

// oracleFrames draws frames of 0..maxRows rows keyed per kind, with nulls
// in every column, NaN among the floats and few distinct keys. Column mv is
// Int in even frames and Float in odd ones. With views set, every column is
// a TakeView of a longer frame that reads some rows as -1 (null).
func oracleFrames(r *rand.Rand, kind string, frames, maxRows int, views bool) ([]*core.DataFrame, []string) {
	pool := []string{"red", "green", "blue", "NA", "plum"}
	nulls := func(n int) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = r.Intn(6) == 0
		}
		return m
	}
	out := make([]*core.DataFrame, frames)
	for f := range out {
		n := r.Intn(maxRows + 1)
		base := n
		if views {
			base += 3
		}
		iv, fv, mvI, mvF := make([]int64, base), make([]float64, base), make([]int64, base), make([]float64, base)
		sv, bv, tv := make([]string, base), make([]bool, base), make([]int64, base)
		ki, kf, kb, ks, codes := make([]int64, base), make([]float64, base), make([]bool, base), make([]string, base), make([]int32, base)
		table := pool
		if kind == "dict-own" {
			table = append([]string(nil), pool...)
			r.Shuffle(len(table), func(a, b int) { table[a], table[b] = table[b], table[a] })
			table = table[:2+r.Intn(len(table)-1)]
		}
		for i := 0; i < base; i++ {
			iv[i] = int64(r.Intn(9) - 4)
			fv[i] = []float64{0.25, -1.5, 2, math.NaN(), 1e300}[r.Intn(5)]
			mvI[i] = int64(r.Intn(5))
			mvF[i] = float64(r.Intn(5)) + 0.5
			sv[i] = pool[r.Intn(len(pool))]
			bv[i] = r.Intn(2) == 0
			tv[i] = int64(r.Intn(4)) * 1e9
			ki[i] = int64(r.Intn(4))
			kf[i] = []float64{0.5, 1, math.Copysign(0, -1), math.NaN()}[r.Intn(4)]
			kb[i] = r.Intn(2) == 0
			if kind == "int-float" {
				kf[i] = []float64{0, 1, 2.5, 3}[r.Intn(4)]
			}
			ks[i] = pool[r.Intn(len(pool))]
			codes[i] = int32(r.Intn(len(table)))
		}
		var mv vector.Vector = vector.NewInt(mvI, nulls(base))
		if f%2 == 1 {
			mv = vector.NewFloat(mvF, nulls(base))
		}
		names := []string{"iv", "fv", "mv", "sv", "bv", "tv"}
		cols := []vector.Vector{
			vector.NewInt(iv, nulls(base)), vector.NewFloat(fv, nulls(base)), mv,
			vector.NewObject(sv, nulls(base)), vector.NewBool(bv, nulls(base)), vector.NewDatetime(tv, nulls(base)),
		}
		switch kind {
		case "dict-shared", "dict-own":
			names, cols = append(names, "k"), append(cols, vector.NewDict(codes, table, nulls(base)))
		case "int":
			names, cols = append(names, "k"), append(cols, vector.NewInt(ki, nulls(base)))
		case "float":
			names, cols = append(names, "k"), append(cols, vector.NewFloat(kf, nulls(base)))
		case "object":
			names, cols = append(names, "k"), append(cols, vector.NewObject(ks, nulls(base)))
		case "datetime":
			names, cols = append(names, "k"), append(cols, vector.NewDatetime(ki, nulls(base)))
		case "bool":
			names, cols = append(names, "k"), append(cols, vector.NewBool(kb, nulls(base)))
		case "int-float":
			k := vector.Vector(vector.NewInt(ki, nulls(base)))
			if f%2 == 1 {
				k = vector.NewFloat(kf, nulls(base))
			}
			names, cols = append(names, "k"), append(cols, k)
		case "object-dict":
			k := vector.Vector(vector.NewObject(ks, nulls(base)))
			if f%2 == 1 {
				k = vector.NewDict(codes, table, nulls(base))
			}
			names, cols = append(names, "k"), append(cols, k)
		case "int+object":
			names = append(names, "k", "k2")
			cols = append(cols, vector.NewInt(ki, nulls(base)), vector.NewObject(ks, nulls(base)))
		}
		labels := make([]types.Value, len(cols))
		domains := make([]types.Domain, len(cols))
		for j := range cols {
			if views {
				idx := make([]int, n)
				for i := range idx {
					idx[i] = r.Intn(base+1) - 1
				}
				cols[j] = vector.TakeView(cols[j], idx)
			}
			// Declared domains keep the Object columns Object: the kernel
			// and the oracle read the very storage built here.
			labels[j], domains[j] = types.String(names[j]), cols[j].Domain()
		}
		df, err := core.Build(cols, nil, labels, domains, nil)
		if err != nil {
			panic(err)
		}
		out[f] = df
	}
	switch kind {
	case "none":
		return out, nil
	case "int+object":
		return out, []string{"k", "k2"}
	}
	return out, []string{"k"}
}

// oracleGroupBy is GROUPBY by definition: each part's frames feed one
// expr.Accumulator per group and aggregate row by row, and the parts'
// accumulators merge in part order. Groups are found by a linear scan under
// vector.KeyEqual, so no hashing is involved.
func oracleGroupBy(parts [][]*core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
	type group struct {
		key  []types.Value
		accs []*expr.Accumulator
		subs []*core.DataFrame
	}
	find := func(gs *[]*group, key []types.Value) *group {
	scan:
		for _, g := range *gs {
			for k := range key {
				if !vector.KeyEqual(g.key[k], key[k]) {
					continue scan
				}
			}
			return g
		}
		g := &group{key: key}
		for _, a := range spec.Aggs {
			g.accs = append(g.accs, expr.NewAccumulator(a.Agg))
		}
		*gs = append(*gs, g)
		return g
	}
	var all []*group
	for _, part := range parts {
		var local []*group
		for _, f := range part {
			rows := map[*group][]int{}
			for i := 0; i < f.NRows(); i++ {
				key := make([]types.Value, len(spec.Keys))
				for k, name := range spec.Keys {
					key[k] = f.Value(i, f.ColIndex(name))
				}
				g := find(&local, key)
				for k, a := range spec.Aggs {
					v := types.IntValue(int64(i))
					if a.Col != "" {
						v = f.Value(i, f.ColIndex(a.Col))
					}
					g.accs[k].Add(v)
				}
				rows[g] = append(rows[g], i)
			}
			var nonKey []int
			for j := 0; j < f.NCols(); j++ {
				if !slices.Contains(spec.Keys, f.ColName(j)) {
					nonKey = append(nonKey, j)
				}
			}
			for _, g := range local {
				if rs, ok := rows[g]; ok {
					g.subs = append(g.subs, f.TakeRows(rs).SelectCols(nonKey))
				}
			}
		}
		for _, lg := range local {
			g := find(&all, lg.key)
			for k := range g.accs {
				g.accs[k].Merge(lg.accs[k])
			}
			g.subs = append(g.subs, lg.subs...)
		}
	}

	var cols []vector.Vector
	var labels []types.Value
	if !spec.AsLabels {
		for k, name := range spec.Keys {
			vals := make([]types.Value, len(all))
			for i, g := range all {
				vals[i] = g.key[k]
			}
			cols, labels = append(cols, buildColumn(vals)), append(labels, types.String(name))
		}
	}
	for k, a := range spec.Aggs {
		vals := make([]types.Value, len(all))
		for i, g := range all {
			vals[i] = g.accs[k].Result()
			if a.Agg == expr.AggCollect {
				sub, err := unionAll(g.subs)
				if err != nil {
					return nil, err
				}
				vals[i] = types.CompositeValue(sub)
			}
		}
		if a.Agg == expr.AggCollect {
			cols = append(cols, vector.NewAny(vals))
		} else {
			cols = append(cols, buildColumn(vals))
		}
		labels = append(labels, types.String(a.OutName()))
	}
	var rowLab vector.Vector
	if spec.AsLabels {
		labs := make([]types.Value, len(all))
		for i, g := range all {
			labs[i] = core.CompositeLabel(g.key...)
		}
		rowLab = buildColumn(labs)
	}
	return core.Build(cols, rowLab, labels, nil, nil)
}

// frameDiff describes the first difference between two frames, comparing
// shape, labels, column domains and every cell's domain and value
// (Composite cells recursively); "" means identical.
func frameDiff(want, got *core.DataFrame) string {
	if want.NRows() != got.NRows() || want.NCols() != got.NCols() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.NRows(), got.NCols(), want.NRows(), want.NCols())
	}
	cellDiff := func(where string, w, g types.Value) string {
		switch {
		case w.IsNull() || g.IsNull():
			if w.IsNull() != g.IsNull() {
				return fmt.Sprintf("%s = %v, want %v", where, g, w)
			}
		case w.Domain() != g.Domain():
			return fmt.Sprintf("%s domain %v, want %v", where, g.Domain(), w.Domain())
		case w.Domain() == types.Composite:
			if d := frameDiff(w.CompositePayload().(*core.DataFrame), g.CompositePayload().(*core.DataFrame)); d != "" {
				return where + ": " + d
			}
		case !w.Equal(g):
			return fmt.Sprintf("%s = %v, want %v", where, g, w)
		}
		return ""
	}
	for i := 0; i < want.NRows(); i++ {
		if d := cellDiff(fmt.Sprintf("row label %d", i), want.RowLabels().Value(i), got.RowLabels().Value(i)); d != "" {
			return d
		}
	}
	for j := 0; j < want.NCols(); j++ {
		if !want.ColLabels()[j].Equal(got.ColLabels()[j]) {
			return fmt.Sprintf("column %d is %v, want %v", j, got.ColLabels()[j], want.ColLabels()[j])
		}
		if w, g := want.TypedCol(j).Domain(), got.TypedCol(j).Domain(); w != g {
			return fmt.Sprintf("column %v domain %v, want %v", want.ColLabels()[j], g, w)
		}
		for i := 0; i < want.NRows(); i++ {
			if d := cellDiff(fmt.Sprintf("cell (%d, %v)", i, want.ColLabels()[j]), want.Value(i, j), got.Value(i, j)); d != "" {
				return d
			}
		}
	}
	return ""
}

// checkGroupPartial folds the frames through GroupPartial three ways — one
// partial fed every frame, one partial per frame merged in order, and the
// heavy-bucket order (contiguous chunks of frames, a partial per chunk,
// merged in chunk order) — and requires each to equal the oracle over the
// same parts.
func checkGroupPartial(t *testing.T, frames []*core.DataFrame, spec expr.GroupBySpec, chunk int) {
	t.Helper()
	chunks := func(size int) [][]*core.DataFrame {
		var parts [][]*core.DataFrame
		for lo := 0; lo < len(frames); lo += size {
			parts = append(parts, frames[lo:min(lo+size, len(frames))])
		}
		return parts
	}
	for _, run := range []struct {
		name  string
		parts [][]*core.DataFrame
	}{{"one partial", [][]*core.DataFrame{frames}}, {"merged", chunks(1)}, {"chunked", chunks(chunk)}} {
		want, err := oracleGroupBy(run.parts, spec)
		if err != nil {
			t.Fatalf("%s: oracle: %v", run.name, err)
		}
		var g *GroupPartial
		for _, part := range run.parts {
			p := NewGroupPartial(spec)
			for _, f := range part {
				if err := p.AddFrame(f); err != nil {
					t.Fatalf("%s: AddFrame: %v", run.name, err)
				}
			}
			if g == nil {
				g = p
			} else {
				g.Merge(p)
			}
		}
		if g == nil {
			g = NewGroupPartial(spec)
		}
		got, err := g.Finalize()
		if err != nil {
			t.Fatalf("%s: Finalize: %v", run.name, err)
		}
		if d := frameDiff(want, got); d != "" {
			t.Fatalf("%s: %s\nwant:\n%s\ngot:\n%s", run.name, d, want, got)
		}
	}
}

// TestGroupPartialMatchesOracle requires GroupPartial to reproduce the
// Accumulator-per-group definition cell for cell — values, domains, group
// order and row labels — over every key storage (Dict tables shared or per
// frame, selection views with -1 rows, Int, Float with NaN, Object,
// Datetime, Bool, two keys, no keys), every typed aggregate kind, std and
// collect, with and without AsLabels and Sorted, with empty frames, and
// with row hashes narrowed to one bit.
func TestGroupPartialMatchesOracle(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0x1} {
		restore := SetRowHashMaskForTesting(mask)
		for ki, kind := range oracleKeyKinds {
			for _, views := range []bool{false, true} {
				r := rand.New(rand.NewSource(int64(27 + ki)))
				frames, keys := oracleFrames(r, kind, 7, 40, views)
				frames = append(frames, frames[0].SliceRows(0, 0))
				for _, asLabels := range []bool{false, true} {
					for _, sorted := range []bool{false, true} {
						t.Run(fmt.Sprintf("mask=%#x/%s/views=%v/labels=%v/sorted=%v", mask, kind, views, asLabels, sorted), func(t *testing.T) {
							spec := expr.GroupBySpec{Keys: keys, Aggs: oracleAggs(), AsLabels: asLabels, Sorted: sorted}
							checkGroupPartial(t, frames, spec, 3)
						})
					}
				}
			}
		}
		restore()
	}
	t.Run("all frames empty", func(t *testing.T) {
		frames, keys := oracleFrames(rand.New(rand.NewSource(1)), "dict-shared", 3, 0, false)
		checkGroupPartial(t, frames, expr.GroupBySpec{Keys: keys, Aggs: oracleAggs()}, 2)
	})
}

// FuzzGroupPartialMatchesOracle is TestGroupPartialMatchesOracle over drawn
// key kinds, frame counts and sizes, views, label modes and hash masks.
func FuzzGroupPartialMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(30), false, false)
	f.Add(int64(2), uint8(1), uint8(6), uint8(12), true, true)
	f.Add(int64(3), uint8(7), uint8(3), uint8(50), true, false)
	f.Add(int64(4), uint8(9), uint8(5), uint8(40), false, true)
	f.Add(int64(5), uint8(10), uint8(6), uint8(40), true, false)
	f.Fuzz(func(t *testing.T, seed int64, kind, frames, rows uint8, views, narrow bool) {
		if narrow {
			defer SetRowHashMaskForTesting(0x1)()
		}
		r := rand.New(rand.NewSource(seed))
		fs, keys := oracleFrames(r, oracleKeyKinds[int(kind)%len(oracleKeyKinds)], 1+int(frames)%8, int(rows)%64, views)
		spec := expr.GroupBySpec{Keys: keys, Aggs: oracleAggs(), AsLabels: seed%2 == 0, Sorted: seed%3 == 0}
		checkGroupPartial(t, fs, spec, 1+r.Intn(len(fs)))
	})
}
