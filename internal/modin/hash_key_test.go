package modin

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// The row hash of a non-null Int x is mix64(seed ^ tagInt ^ mix64(x)), with
// mix64 the splitmix64 finalizer; a null hashes as mix64(seed ^ tagNull ^
// mix64(0)), and a non-integral Float f as mix64(seed ^ tagFlt ^
// mix64(bits(f))). mix64 inverts, so the Int that collides with any other
// key's hash can be solved for, and the seed cancels out of the equation.

// inverse64 returns the multiplicative inverse of an odd a modulo 2^64.
func inverse64(a uint64) uint64 {
	x := a
	for range 5 {
		x *= 2 - a*x
	}
	return x
}

// unmix64 inverts the splitmix64 finalizer.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= inverse64(0x94d049bb133111eb)
	x ^= x>>27 ^ x>>54
	x *= inverse64(0xbf58476d1ce4e5b9)
	x ^= x>>30 ^ x>>60
	return x
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// intColliding returns the Int whose hash is the hash of v, a key that is
// not that Int: under seed 0 the hash of v unmixes to tag ^ mix64(word), and
// the Int's to tagInt ^ mix64(x), so mix64(x) = unmix(h(v)) ^ tagInt.
func intColliding(v types.Value) int64 {
	tagInt := unmix64(vector.HashValue(types.IntValue(0), 0)) ^ mix64(0)
	return int64(unmix64(unmix64(vector.HashValue(v, 0)) ^ tagInt))
}

// rowHash is the hash the keyed kernels give v's row.
func rowHash(t *testing.T, v types.Value) uint64 {
	t.Helper()
	df := core.MustNew([]string{"k"}, []vector.Vector{vector.FromValues(v.Domain(), []types.Value{v})})
	h, err := algebra.RowKeyHashes(df, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	return h[0]
}

// declaredFrame is a frame over cols, each declared in its own domain.
func declaredFrame(names []string, cols ...vector.Vector) *core.DataFrame {
	labels, domains := make([]types.Value, len(cols)), make([]types.Domain, len(cols))
	for j, c := range cols {
		labels[j], domains[j] = types.String(names[j]), c.Domain()
	}
	df, err := core.Build(cols, nil, labels, domains, nil)
	if err != nil {
		panic(err)
	}
	return df
}

// TestKeysThatCollideOnTheHashStayApart builds keys that share a full-width
// row hash with a key they are not: the Int whose hash is a null's, and a
// non-integral Float whose hash is an integral one's (an Int's, in a Float
// column). GROUPBY, DROP-DUPLICATES (keyed and whole-row), DIFFERENCE and
// inner and left joins must keep every such pair apart, with a row count
// fixed in advance, on eager and on MODIN at 1, 2 and 7 bands, cell for
// cell alike (bitDiff). It holds whether or not a kernel checks its hash matches:
// only a key whose hash is the key (vector.HashIsKey) may skip the check.
func TestKeysThatCollideOnTheHashStayApart(t *testing.T) {
	xNull := intColliding(types.Null())
	if rowHash(t, types.IntValue(xNull)) != rowHash(t, types.Null()) {
		t.Fatal("the null's collider does not collide")
	}
	// A non-integral Float whose colliding Int reads back exactly as a
	// Float, so both can sit in one Float column.
	var f float64
	var xf int64
	for k := 0; ; k++ {
		if k == 1<<22 {
			t.Fatal("no Float collides with an exact Int")
		}
		f = float64(k) + 0.5
		if xf = intColliding(types.FloatValue(f)); float64(xf) < math.MaxInt64 && int64(float64(xf)) == xf {
			break
		}
	}
	fx := float64(xf)
	if rowHash(t, types.FloatValue(f)) != rowHash(t, types.FloatValue(fx)) || rowHash(t, types.IntValue(xf)) != rowHash(t, types.FloatValue(f)) {
		t.Fatal("the Float's collider does not collide")
	}

	const n = 42
	nullable := func(pattern ...*int64) *algebra.Source {
		k, nulls, v := make([]int64, n), make([]bool, n), make([]int64, n)
		for i := range k {
			if p := pattern[i%len(pattern)]; p == nil {
				nulls[i] = true
			} else {
				k[i] = *p
			}
			v[i] = int64(i)
		}
		return &algebra.Source{DF: declaredFrame([]string{"k", "v"}, vector.NewInt(k, nulls), vector.NewInt(v, nil)), Name: "ints"}
	}
	floats := func(pattern ...float64) *algebra.Source {
		k, v := make([]float64, n), make([]int64, n)
		for i := range k {
			k[i], v[i] = pattern[i%len(pattern)], int64(i)
		}
		return &algebra.Source{DF: declaredFrame([]string{"k", "v"}, vector.NewFloat(k, nil), vector.NewInt(v, nil)), Name: "floats"}
	}
	ints := func(ks ...int64) *algebra.Source {
		w := make([]int64, len(ks))
		for i := range w {
			w[i] = int64(100 + i)
		}
		return &algebra.Source{DF: declaredFrame([]string{"k", "w"}, vector.NewInt(ks, nil), vector.NewInt(w, nil)), Name: "dim"}
	}
	only := func(in *algebra.Source) algebra.Node {
		return &algebra.Projection{Input: in, Cols: []string{"k"}}
	}
	seven := int64(7)
	ni := nullable(&xNull, nil, &seven) // 14 rows each of xNull, null, 7
	nf := floats(f, fx, fx)             // 14 rows of f, 28 of fx
	nullDim := nullable(nil, &seven)    // null and 7, non-null keys on the probing side
	groupSize := func(in algebra.Node) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize}}}}
	}
	join := func(l, r algebra.Node, kind expr.JoinKind) algebra.Node {
		return &algebra.Join{Left: l, Right: r, Kind: kind, On: []string{"k"}}
	}
	cases := []struct {
		name string
		plan algebra.Node
		rows int
	}{
		{"groupby/null", groupSize(ni), 3},
		{"groupby/float", groupSize(nf), 2},
		{"dropdup-keyed/null", &algebra.DropDuplicates{Input: ni, Subset: []string{"k"}}, 3},
		{"dropdup-keyed/float", &algebra.DropDuplicates{Input: nf, Subset: []string{"k"}}, 2},
		{"dropdup-row/null", &algebra.DropDuplicates{Input: only(ni)}, 3},
		{"dropdup-row/float", &algebra.DropDuplicates{Input: only(nf)}, 2},
		{"difference/null-minus-collider", &algebra.Difference{Left: only(ni), Right: only(ints(xNull))}, 28},
		{"difference/collider-minus-null", &algebra.Difference{Left: only(ni), Right: &algebra.Projection{Input: nullDim, Cols: []string{"k"}}}, 14},
		{"difference/float-minus-int", &algebra.Difference{Left: only(nf), Right: only(ints(xf))}, 14},
		{"difference/int-minus-float", &algebra.Difference{Left: only(ints(xf, 3)), Right: only(floats(f))}, 2},
		{"difference/float-minus-float", &algebra.Difference{Left: only(nf), Right: only(floats(fx))}, 14},
		{"join-inner/null-probes", join(ni, ints(xNull), expr.JoinInner), 14},
		{"join-inner/null-built", join(ints(xNull, 7), nullDim, expr.JoinInner), 21},
		{"join-inner/float-probes", join(nf, ints(xf), expr.JoinInner), 28},
		{"join-inner/float-built", join(ints(xf, 3), floats(f), expr.JoinInner), 0},
		{"join-inner/float-float", join(floats(f), floats(fx, fx), expr.JoinInner), 0},
		{"join-left/null-probes", join(ni, ints(xNull), expr.JoinLeft), n},
		{"join-left/null-built", join(ints(xNull, 7), nullDim, expr.JoinLeft), 22},
		{"join-left/float-probes", join(nf, ints(xf), expr.JoinLeft), n},
		{"join-left/float-built", join(ints(xf, 3), floats(f), expr.JoinLeft), 2},
	}
	engines := []struct {
		name string
		e    algebra.Engine
	}{{"eager", eager.New()}, {"bands=1", New(WithBands(1))}, {"bands=2", New(WithBands(2))}, {"bands=7", New(WithBands(7))}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := eager.New().Execute(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if want.NRows() != c.rows {
				t.Fatalf("eager: %d rows, want %d\n%s", want.NRows(), c.rows, want)
			}
			for _, e := range engines[1:] {
				got, err := e.e.Execute(c.plan)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				// Declared domains aside: MODIN at 2+ bands declares a
				// groupby's and a join's columns Unspecified where eager
				// declares them, with or without colliding keys.
				if d := bitDiff(want, got, true); d != "" {
					t.Fatalf("%s: %s\ngot:\n%s\neager:\n%s", e.name, d, got, want)
				}
			}
		})
	}
}
