package algebra

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// boxedCoalesce is the reference for a joined key column: every cell boxed,
// taken from primary at pIdx or from secondary at sIdx where pIdx is -1,
// and rebuilt in primary's domain — Object when the sides' domains differ.
func boxedCoalesce(primary, secondary vector.Vector, pIdx, sIdx []int) vector.Vector {
	vals := make([]types.Value, len(pIdx))
	for k := range pIdx {
		switch {
		case pIdx[k] >= 0:
			vals[k] = primary.Value(pIdx[k])
		case sIdx[k] >= 0:
			vals[k] = secondary.Value(sIdx[k])
		default:
			vals[k] = types.Null()
		}
	}
	dom := primary.Domain()
	if dom != secondary.Domain() {
		dom = types.Object
	}
	return vector.FromValues(dom, vals)
}

// TestJoinKeyColumnMatchesBoxedCoalesce pins the joined key column against
// the boxed reference for every key domain and join kind: each side has
// duplicate, null and unmatched keys, so inner and left joins take the key
// typed from the left, and right and outer joins fill unmatched right rows
// from the right. Values, the column's domain and the frame's declared and
// induced domains must all agree.
func TestJoinKeyColumnMatchesBoxedCoalesce(t *testing.T) {
	ln := []bool{false, false, true, false, false, false}
	rn := []bool{false, true, false, false, false}
	for _, c := range []struct {
		name        string
		left, right vector.Vector
	}{
		{"int", vector.NewInt([]int64{1, 2, 0, 2, 7, 1}, ln), vector.NewInt([]int64{2, 0, 1, 9, 2}, rn)},
		{"float", vector.NewFloat([]float64{1.5, 2, 0, 2, 7, 1.5}, ln), vector.NewFloat([]float64{2, 0, 1.5, 9, 2}, rn)},
		{"datetime", vector.NewDatetime([]int64{1e9 + 7, 2e9, 0, 2e9, 7e9, 1e9 + 7}, ln), vector.NewDatetime([]int64{2e9, 0, 1e9 + 7, 9e9, 2e9}, rn)},
		{"dict", vector.NewDict([]int32{0, 1, 0, 1, 2, 0}, []string{"a", "b", "g"}, ln), vector.NewDict([]int32{0, 1, 2, 3, 0}, []string{"b", "z", "a", "q"}, rn)},
		{"object", vector.NewObject([]string{"a", "b", "", "b", "g", "a"}, ln), vector.NewObject([]string{"b", "", "a", "q", "b"}, rn)},
		{"int-vs-float", vector.NewInt([]int64{1, 2, 0, 2, 7, 1}, ln), vector.NewFloat([]float64{2, 0, 1, 9, 2}, rn)},
	} {
		left := core.MustNew([]string{"k", "x"}, []vector.Vector{c.left, vector.Range(0, c.left.Len())})
		right := core.MustNew([]string{"k", "y"}, []vector.Vector{c.right, vector.Range(100, c.right.Len())})
		for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft, expr.JoinRight, expr.JoinOuter} {
			out, err := JoinFrames(left, right, kind, []string{"k"}, false)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, kind, err)
			}
			// The payload columns say which rows were paired.
			li, ri := make([]int, out.NRows()), make([]int, out.NRows())
			for i := range li {
				li[i], ri[i] = -1, -1
				if v := out.Value(i, 1); !v.IsNull() {
					li[i] = int(v.Int())
				}
				if v := out.Value(i, 2); !v.IsNull() {
					ri[i] = int(v.Int()) - 100
				}
			}
			want := boxedCoalesce(c.left, c.right, li, ri)
			got := out.Col(0)
			if !vector.Equal(got, want) || got.Domain() != want.Domain() {
				t.Errorf("%s %v: key column %v (%v), boxed reference %v (%v)", c.name, kind, vector.Strings(got), got.Domain(), vector.Strings(want), want.Domain())
			}
			ref, err := out.WithColumn(0, want, types.Unspecified)
			if err != nil {
				t.Fatal(err)
			}
			if out.DeclaredDomain(0) != ref.DeclaredDomain(0) || out.Domain(0) != ref.Domain(0) {
				t.Errorf("%s %v: key domain declared %v induced %v, boxed reference declared %v induced %v",
					c.name, kind, out.DeclaredDomain(0), out.Domain(0), ref.DeclaredDomain(0), ref.Domain(0))
			}
		}
	}
}

// TestProbeOfUniqueBuildKeysEmitsOnePairPerRow: a build side whose every
// non-null key is distinct (nulls repeat) matches each probe row at most
// once, in every join kind that keeps probe rows.
func TestProbeOfUniqueBuildKeysEmitsOnePairPerRow(t *testing.T) {
	right := core.MustNew([]string{"k"}, []vector.Vector{vector.NewInt([]int64{4, 0, 2, 0, 9}, []bool{false, true, false, true, false})})
	left := core.MustNew([]string{"k"}, []vector.Vector{vector.NewInt([]int64{2, 3, 4, 4, 0}, []bool{false, false, false, false, true})})
	table := BuildJoinTable(right, []string{"k"}, false)
	if !table.unique {
		t.Fatal("distinct non-null build keys must mark the table unique")
	}
	keys, err := joinKeys(left, []string{"k"}, false, "left")
	if err != nil {
		t.Fatal(err)
	}
	li, ri := table.probe(left.NRows(), keys, expr.JoinLeft)
	wantL, wantR := []int{0, 1, 2, 3, 4}, []int{2, -1, 0, 0, -1}
	if len(li) != len(wantL) || len(ri) != len(wantR) {
		t.Fatalf("pairs %v %v, want %v %v", li, ri, wantL, wantR)
	}
	for i := range wantL {
		if li[i] != wantL[i] || ri[i] != wantR[i] {
			t.Fatalf("pairs %v %v, want %v %v", li, ri, wantL, wantR)
		}
	}
	dup := core.MustNew([]string{"k"}, []vector.Vector{vector.NewInt([]int64{4, 4}, nil)})
	if BuildJoinTable(dup, []string{"k"}, false).unique {
		t.Error("a repeated build key must not mark the table unique")
	}
}
