package df

import (
	"strings"
	"testing"
)

func sample(t *testing.T) *DataFrame {
	t.Helper()
	return MustNew(
		[]string{"name", "dept", "salary", "bonus"},
		[][]any{
			{"ann", "eng", 100, 10.0},
			{"bob", "ops", 80, nil},
			{"cat", "eng", 120, 12.0},
			{"dan", "ops", 90, 9.0},
		},
	)
}

func TestNewAndShape(t *testing.T) {
	d := sample(t)
	r, c := d.Shape()
	if r != 4 || c != 4 {
		t.Fatalf("shape = %dx%d", r, c)
	}
	if d.Len() != 4 {
		t.Error("Len wrong")
	}
	if got := d.Columns(); got[0] != "name" || len(got) != 4 {
		t.Error("Columns wrong")
	}
	// The env-switched harness (DF_CLUSTER_WORKERS/ADDRS) swaps the default
	// engine for the distributed coordinator; both are valid defaults.
	if name := d.EngineName(); name != "modin" && name != "cluster" {
		t.Errorf("default engine = %s", name)
	}
}

func TestBothEnginesExposed(t *testing.T) {
	d := sample(t).WithEngine(NewBaselineEngine())
	if d.EngineName() != "pandas-baseline" {
		t.Error("baseline engine name wrong")
	}
	out, err := d.Select("name")
	if err != nil || out.Len() != 4 {
		t.Error("baseline select wrong")
	}
	if NewModinEngine().Name() != "modin" {
		t.Error("modin engine name wrong")
	}
}

func TestDtypesLazyInduction(t *testing.T) {
	d, err := ReadCSVString("a,b,c\n1,x,2.5\n2,y,3.5\n")
	if err != nil {
		t.Fatal(err)
	}
	dt := d.Dtypes()
	if dt["a"] != "int" || dt["b"] != "object" || dt["c"] != "float" {
		t.Errorf("dtypes = %v", dt)
	}
}

func TestHeadTail(t *testing.T) {
	d := sample(t)
	if h := d.Head(2); h.Len() != 2 {
		t.Error("head wrong")
	}
	tl := d.Tail(1)
	v, err := tl.Iloc(0, 0)
	if err != nil || v.Str() != "dan" {
		t.Error("tail wrong")
	}
}

func TestIlocAndPointUpdate(t *testing.T) {
	d := sample(t)
	v, err := d.Iloc(2, 2)
	if err != nil || v.Int() != 120 {
		t.Fatalf("iloc = %v, %v", v, err)
	}
	// Step C1 of Figure 1: fix an anomalous value in place.
	if err := d.SetIloc(2, 2, Int(125)); err != nil {
		t.Fatal(err)
	}
	v, _ = d.Iloc(2, 2)
	if v.Int() != 125 {
		t.Errorf("after update = %v", v)
	}
	if _, err := d.Iloc(9, 0); err == nil {
		t.Error("out of range iloc should fail")
	}
	if err := d.SetIloc(9, 0, NA()); err == nil {
		t.Error("out of range set should fail")
	}
}

func TestLoc(t *testing.T) {
	d := sample(t)
	row, err := d.Loc(Int(2))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := row.Iloc(0, 0)
	if v.Str() != "cat" {
		t.Error("loc wrong")
	}
	if _, err := d.Loc(Str("missing")); err == nil {
		t.Error("missing label should fail")
	}
}

func TestFilterSelectDrop(t *testing.T) {
	d := sample(t)
	eng, err := d.Filter("dept==eng", func(r Row) bool { return r.ByName("dept").Str() == "eng" })
	if err != nil || eng.Len() != 2 {
		t.Fatalf("filter: %v len=%d", err, eng.Len())
	}
	sel, err := d.Select("salary", "name")
	if err != nil || sel.Columns()[0] != "salary" {
		t.Error("select wrong")
	}
	dropped, err := d.Drop("bonus", "dept")
	if err != nil || len(dropped.Columns()) != 2 {
		t.Error("drop wrong")
	}
	if _, err := d.Drop("nope"); err == nil {
		t.Error("dropping unknown column should fail")
	}
}

func TestSortAndRename(t *testing.T) {
	d := sample(t)
	sorted, err := d.SortValues("salary")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sorted.Iloc(0, 0)
	if v.Str() != "bob" {
		t.Error("sort wrong")
	}
	desc, err := d.SortValuesBy([]SortKey{{Col: "salary", Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	v, _ = desc.Iloc(0, 0)
	if v.Str() != "cat" {
		t.Error("desc sort wrong")
	}
	back, err := desc.SortIndex()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) {
		t.Error("sort_index should restore original order")
	}
	ren, err := d.Rename(map[string]string{"dept": "team"})
	if err != nil || ren.Columns()[1] != "team" {
		t.Error("rename wrong")
	}
}

func TestConcatExceptDropDuplicates(t *testing.T) {
	d := sample(t)
	cat, err := d.Concat(d)
	if err != nil || cat.Len() != 8 {
		t.Fatal("concat wrong")
	}
	dd, err := cat.DropDuplicates()
	if err != nil || dd.Len() != 4 {
		t.Errorf("dropduplicates wrong: %d", dd.Len())
	}
	ex, err := d.Except(d.Head(1))
	if err != nil || ex.Len() != 3 {
		t.Error("except wrong")
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	d := sample(t)
	tr, err := d.T()
	if err != nil {
		t.Fatal(err)
	}
	r, c := tr.Shape()
	if r != 4 || c != 4 {
		t.Fatalf("transposed shape = %dx%d", r, c)
	}
	back, err := tr.T()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) {
		t.Errorf("T∘T should be identity:\n%s\nvs\n%s", d, back)
	}
}

func TestTWithSchema(t *testing.T) {
	d := MustNew([]string{"a", "b"}, [][]any{{"1", "2"}})
	tr, err := d.TWithSchema([]string{"int"})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := tr.Iloc(0, 0)
	if v.Int() != 1 {
		t.Error("declared schema should parse")
	}
	if _, err := d.TWithSchema([]string{"nonsense"}); err == nil {
		t.Error("bad domain name should fail")
	}
}

func TestApplyMapAndApply(t *testing.T) {
	d := sample(t)
	up, err := d.ApplyMap("upper", func(v Value) Value {
		if v.Domain().String() == "object" && !v.IsNull() {
			return Str(strings.ToUpper(v.Str()))
		}
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := up.Iloc(0, 0)
	if v.Str() != "ANN" {
		t.Error("applymap wrong")
	}

	totals, err := d.Apply("total-comp", []string{"total"}, func(r Row) []Value {
		s := float64(r.ByName("salary").Int())
		if b := r.ByName("bonus"); !b.IsNull() {
			s += b.Float()
		}
		return []Value{Float(s)}
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ = totals.Iloc(0, 0)
	if v.Float() != 110 {
		t.Errorf("apply total = %v", v)
	}
}

func TestMapCol(t *testing.T) {
	// Step C3 of Figure 1: yes/no to binary.
	d := MustNew([]string{"product", "Wireless Charging"}, [][]any{
		{"iPhone 11", "Yes"}, {"iPhone 8", "No"},
	})
	out, err := d.MapCol("Wireless Charging", "yes-to-1", func(v Value) Value {
		if v.Str() == "Yes" {
			return Int(1)
		}
		return Int(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Iloc(0, 1)
	if v.Int() != 1 {
		t.Error("mapcol wrong")
	}
	v, _ = out.Iloc(0, 0)
	if v.Str() != "iPhone 11" {
		t.Error("other columns should pass through")
	}
	if _, err := d.MapCol("ghost", "x", func(v Value) Value { return v }); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestNAHelpers(t *testing.T) {
	d := sample(t)
	isna, err := d.IsNA()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := isna.Iloc(1, 3)
	if !v.Bool() {
		t.Error("isna wrong")
	}
	filled, err := d.FillNA(Float(0))
	if err != nil {
		t.Fatal(err)
	}
	v, _ = filled.Iloc(1, 3)
	if v.Float() != 0 {
		t.Error("fillna wrong")
	}
	clean, err := d.DropNA()
	if err != nil || clean.Len() != 3 {
		t.Error("dropna wrong")
	}
}

func TestSetResetIndex(t *testing.T) {
	d := sample(t)
	idx, err := d.SetIndex("name")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Columns()) != 3 {
		t.Error("set_index should remove the column")
	}
	back, err := idx.ResetIndex("name")
	if err != nil {
		t.Fatal(err)
	}
	if back.Columns()[0] != "name" || !back.Equal(d) {
		t.Error("reset_index should restore")
	}
}

func TestMergeVariants(t *testing.T) {
	people := sample(t)
	heads := MustNew([]string{"dept", "head"}, [][]any{{"eng", "grace"}, {"ops", "ada"}})
	joined, err := people.Merge(heads, "dept")
	if err != nil || joined.Len() != 4 {
		t.Fatalf("merge: %v", err)
	}
	v, _ := joined.Iloc(0, 4)
	if v.Str() != "grace" {
		t.Error("merge values wrong")
	}

	left, err := people.MergeKind(heads.Head(1), "left", "dept")
	if err != nil || left.Len() != 4 {
		t.Error("left merge wrong")
	}
	if _, err := people.MergeKind(heads, "sideways", "dept"); err == nil {
		t.Error("bad kind should fail")
	}

	cross, err := people.CrossJoin(heads)
	if err != nil || cross.Len() != 8 {
		t.Error("cross join wrong")
	}

	// Index join, as in step A2 of Figure 1.
	a, _ := people.SetIndex("name")
	b, _ := people.SetIndex("name")
	onIdx, err := a.MergeOnIndex(b)
	if err != nil || onIdx.Len() != 4 {
		t.Errorf("index merge: %v", err)
	}
}

func TestGroupByBuilder(t *testing.T) {
	d := sample(t)
	sum, err := d.GroupBy("dept").Sum("salary")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 2 {
		t.Fatalf("groups = %d", sum.Len())
	}
	v, _ := sum.Iloc(0, 1)
	if v.Float() != 220 {
		t.Errorf("eng sum = %v", v)
	}

	multi, err := d.GroupBy("dept").Agg(
		AggSpec{Col: "salary", Agg: "mean", As: "avg"},
		AggSpec{Col: "salary", Agg: "count"},
	)
	if err != nil || len(multi.Columns()) != 3 {
		t.Fatalf("agg: %v", err)
	}
	if _, err := d.GroupBy("dept").Agg(AggSpec{Col: "salary", Agg: "bogus"}); err == nil {
		t.Error("unknown aggregate should fail")
	}

	idx, err := d.GroupBy("dept").AsIndex().Mean("salary")
	if err != nil || len(idx.Columns()) != 1 {
		t.Error("AsIndex should move keys to labels")
	}

	sorted, err := d.SortValues("dept")
	if err != nil {
		t.Fatal(err)
	}
	viaSorted, err := sorted.GroupBy("dept").Sorted().Sum("salary")
	if err != nil {
		t.Fatal(err)
	}
	viaHash, err := sorted.GroupBy("dept").Sum("salary")
	if err != nil {
		t.Fatal(err)
	}
	if !viaSorted.Equal(viaHash) {
		t.Error("sorted streaming groupby should match hash groupby")
	}

	size, err := d.GroupBy("dept").Size()
	if err != nil {
		t.Fatal(err)
	}
	v, _ = size.Iloc(0, 1)
	if v.Int() != 2 {
		t.Error("size wrong")
	}
	for _, f := range []func(string) (*DataFrame, error){
		d.GroupBy("dept").Count, d.GroupBy("dept").Min, d.GroupBy("dept").Max,
	} {
		if _, err := f("salary"); err != nil {
			t.Errorf("builder agg failed: %v", err)
		}
	}
}

func TestWindowHelpers(t *testing.T) {
	d := MustNew([]string{"v"}, [][]any{{1}, {3}, {6}, {10}})
	sh, err := d.Shift(1)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := sh.Iloc(1, 0)
	if v.Int() != 1 {
		t.Error("shift wrong")
	}
	up, err := d.Shift(-1)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = up.Iloc(0, 0)
	if v.Int() != 3 {
		t.Error("negative shift wrong")
	}
	di, err := d.Diff(1)
	if err != nil {
		t.Fatal(err)
	}
	v, _ = di.Iloc(3, 0)
	if v.Float() != 4 {
		t.Error("diff wrong")
	}
	cs, err := d.CumSum()
	if err != nil {
		t.Fatal(err)
	}
	v, _ = cs.Iloc(3, 0)
	if v.Float() != 20 {
		t.Error("cumsum wrong")
	}
	if _, err := d.CumMax(); err != nil {
		t.Error(err)
	}
	if _, err := d.CumMin(); err != nil {
		t.Error(err)
	}
	rm, err := d.Rolling(2).Mean()
	if err != nil {
		t.Fatal(err)
	}
	v, _ = rm.Iloc(1, 0)
	if v.Float() != 2 {
		t.Error("rolling mean wrong")
	}
	for _, f := range []func() (*DataFrame, error){
		d.Rolling(2).Sum, d.Rolling(2).Max, d.Rolling(2).Min,
	} {
		if _, err := f(); err != nil {
			t.Error(err)
		}
	}
	if _, err := d.Rolling(0).Mean(); err == nil {
		t.Error("zero window should fail")
	}
}

// TestDiffAheadSpansBands: Diff(-1) subtracts the next row, also at the
// band boundaries of a frame too large to run inline.
func TestDiffAheadSpansBands(t *testing.T) {
	const n = 5000
	records := make([][]any, n)
	for i := range records {
		records[i] = []any{i * i}
	}
	d, err := New([]string{"x"}, records)
	if err != nil {
		t.Fatal(err)
	}
	di, err := d.Diff(-1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := di.Iloc(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		// (i² − (i+1)²) = −(2i+1); the last row has no next row.
		if i == n-1 {
			if !v.IsNull() {
				t.Errorf("row %d = %v, want NA", i, v)
			}
		} else if v.IsNull() || v.Float() != float64(-(2*i+1)) {
			t.Fatalf("row %d = %v, want %d", i, v, -(2*i + 1))
		}
	}
}

func TestGetDummiesAndCov(t *testing.T) {
	d := MustNew([]string{"color", "x", "y"}, [][]any{
		{"red", 1.0, 2.0}, {"blue", 2.0, 4.0}, {"red", 3.0, 6.0},
	})
	oneHot, err := d.GetDummies()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range oneHot.Columns() {
		if c == "color_red" {
			found = true
		}
	}
	if !found {
		t.Errorf("dummies columns = %v", oneHot.Columns())
	}
	cov, err := d.Cov()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := cov.Iloc(0, 1)
	if v.Float() != 2 {
		t.Errorf("cov(x,y) = %v", v)
	}
}

func TestPivotAPI(t *testing.T) {
	d := MustNew([]string{"Year", "Month", "Sales"}, [][]any{
		{2001, "Jan", 100}, {2001, "Feb", 110},
		{2002, "Jan", 150}, {2002, "Feb", 200},
	})
	wide, err := d.Pivot("Year", "Month", "Sales")
	if err != nil {
		t.Fatal(err)
	}
	r, c := wide.Shape()
	if r != 2 || c != 2 {
		t.Fatalf("pivot shape = %dx%d\n%s", r, c, wide)
	}
	v, _ := wide.Iloc(1, 1)
	if v.Int() != 200 {
		t.Errorf("pivot cell = %v", v)
	}
}

func TestAggAndDescribe(t *testing.T) {
	d := sample(t)
	agg, err := d.Agg("mean", "max")
	if err != nil || agg.Len() != 2 {
		t.Fatalf("agg: %v", err)
	}
	if _, err := d.Agg("frobnicate"); err == nil {
		t.Error("unknown agg should fail")
	}
	desc, err := d.Describe()
	if err != nil || desc.Len() != 5 {
		t.Error("describe wrong")
	}
	kurt, err := d.Kurtosis()
	if err != nil || kurt.Len() != 1 {
		t.Error("kurtosis wrong")
	}
}

func TestReindexLikeAPI(t *testing.T) {
	d := sample(t)
	ref, err := d.SortValuesBy([]SortKey{{Col: "salary", Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.ReindexLike(ref)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := out.Iloc(0, 0)
	if v.Str() != "cat" {
		t.Error("reindex order wrong")
	}
}

func TestColHelpers(t *testing.T) {
	d := sample(t)
	col, err := d.Col("salary")
	if err != nil || len(col.Columns()) != 1 {
		t.Error("Col wrong")
	}
	vals, err := d.ColValues("salary")
	if err != nil || len(vals) != 4 || vals[2].Int() != 120 {
		t.Error("ColValues wrong")
	}
	if _, err := d.ColValues("nope"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestRenderShowsData(t *testing.T) {
	d := sample(t)
	out := d.String()
	if !strings.Contains(out, "ann") || !strings.Contains(out, "salary") {
		t.Errorf("render missing data:\n%s", out)
	}
}
