package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/schema"
	"repro/internal/types"
	"repro/internal/vector"
)

func sampleDF(t *testing.T) *DataFrame {
	t.Helper()
	df, err := New(
		[]string{"name", "age", "score"},
		[]vector.Vector{
			vector.NewObjectFromStrings([]string{"ann", "bob", "cat", "dan"}),
			vector.NewObjectFromStrings([]string{"30", "NA", "25", "41"}),
			vector.NewObjectFromStrings([]string{"1.5", "2.5", "3.5", "4.5"}),
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestNewShapeAndDefaults(t *testing.T) {
	df := sampleDF(t)
	if df.NRows() != 4 || df.NCols() != 3 {
		t.Fatalf("shape = %dx%d", df.NRows(), df.NCols())
	}
	// Default row labels are positional.
	for i := 0; i < 4; i++ {
		if df.RowLabels().Value(i).Int() != int64(i) {
			t.Errorf("row label %d wrong", i)
		}
	}
	// Domains start unspecified.
	for j := 0; j < 3; j++ {
		if df.DeclaredDomain(j) != types.Unspecified {
			t.Errorf("column %d should start unspecified", j)
		}
	}
}

func TestNewRejectsMismatch(t *testing.T) {
	_, err := New([]string{"a"}, []vector.Vector{
		vector.NewInt([]int64{1}, nil),
		vector.NewInt([]int64{2}, nil),
	})
	if err == nil {
		t.Error("name/column count mismatch should fail")
	}
	_, err = New([]string{"a", "b"}, []vector.Vector{
		vector.NewInt([]int64{1, 2}, nil),
		vector.NewInt([]int64{3}, nil),
	})
	if err == nil {
		t.Error("ragged columns should fail")
	}
}

func TestLazyInduction(t *testing.T) {
	df := sampleDF(t)
	if got := df.Domain(1); got != types.Int {
		t.Errorf("age domain = %v", got)
	}
	if got := df.Domain(2); got != types.Float {
		t.Errorf("score domain = %v", got)
	}
	if got := df.Domain(0); got != types.Object {
		t.Errorf("name domain = %v", got)
	}
	// Induction memoizes onto Dn.
	if df.DeclaredDomain(1) != types.Int {
		t.Error("induced domain should be memoized")
	}
}

func TestValueParsesPerColumnDomain(t *testing.T) {
	df := sampleDF(t)
	if df.Value(0, 1).Int() != 30 {
		t.Error("parsed int wrong")
	}
	if !df.Value(1, 1).IsNull() {
		t.Error("NA should parse to null")
	}
	if df.Value(2, 2).Float() != 3.5 {
		t.Error("parsed float wrong")
	}
}

// TestValueReadsOneCellWithoutACache: cell-by-cell reads of a cache-less
// frame's raw column that induces Category parse one cell per read, so the
// 75,000 reads finish in linear time — a whole-column parse per read would
// take minutes — and each equals the column's typed form, whether the
// induction ran before the reads or from the first of them.
func TestValueReadsOneCellWithoutACache(t *testing.T) {
	const n = 75_000
	raw := make([]string, n)
	for i := range raw {
		raw[i] = fmt.Sprintf("k%03d", i*7%100)
		if i%13 == 0 {
			raw[i] = "NA"
		}
	}
	col := vector.NewObjectFromStrings(raw)
	typed := MustNew([]string{"k"}, []vector.Vector{col}).TypedCol(0)
	if typed.Domain() != types.Category {
		t.Fatalf("column induces %v, want category", typed.Domain())
	}
	start := time.Now()
	for _, warm := range []bool{false, true} {
		df := MustNew([]string{"k"}, []vector.Vector{col})
		if warm {
			df.TypedCol(0)
		}
		for i := range n {
			if got, want := df.Value(i, 0), typed.Value(i); got.IsNull() != want.IsNull() || got.Domain() != want.Domain() || !got.Equal(want) {
				t.Fatalf("warm=%v cell %d = %#v, want %#v", warm, i, got, want)
			}
		}
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("reading 2×%d cells took %v: each read parses more than its cell", n, took)
	}
}

// TestTypedColOfAViewAgreesAcrossCalls requires the first TypedCol of an
// undeclared raw column on a frame with no cache (the induction's own parse)
// and every later one (a parse under the memoized domain) to read the same
// cells, when the column is a selection view that spells nulls as text,
// masks others and selects some from nowhere.
func TestTypedColOfAViewAgreesAcrossCalls(t *testing.T) {
	const n = 100
	cats, ints := make([]string, n), make([]string, n)
	mask := make([]bool, n)
	idx := make([]int, n)
	for i := range cats {
		cats[i] = []string{"red", "blue", "NA", "green", ""}[i%5]
		ints[i] = []string{"1", "NA", "-3", "", "null"}[i%5]
		mask[i] = i%9 == 0
		idx[i] = (i*7)%n - 1 // reads position -1 once
	}
	df, err := Build([]vector.Vector{
		vector.TakeView(vector.NewObject(cats, mask), idx),
		vector.TakeView(vector.NewObject(ints, mask), idx),
	}, nil, []types.Value{types.String("cat"), types.String("int")}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []types.Domain{types.Category, types.Int} {
		first, later := df.TypedCol(j), df.TypedCol(j)
		if first.Domain() != want || later.Domain() != want {
			t.Fatalf("column %d: domains %v then %v, want %v", j, first.Domain(), later.Domain(), want)
		}
		for i := 0; i < n; i++ {
			a, b := first.Value(i), later.Value(i)
			if a.IsNull() != b.IsNull() || !a.Equal(b) {
				t.Errorf("column %d row %d: first TypedCol reads %v, later %v", j, i, a, b)
			}
		}
	}
}

func TestColIndexAndByName(t *testing.T) {
	df := sampleDF(t)
	if df.ColIndex("age") != 1 || df.ColIndex("nope") != -1 {
		t.Error("ColIndex wrong")
	}
	if _, err := df.ColByName("nope"); err == nil {
		t.Error("missing column should error")
	}
	v, err := df.ColByName("name")
	if err != nil || v.Len() != 4 {
		t.Error("ColByName wrong")
	}
	names := df.ColNames()
	if len(names) != 3 || names[2] != "score" {
		t.Error("ColNames wrong")
	}
}

func TestTakeAndSliceRows(t *testing.T) {
	df := sampleDF(t)
	tk := df.TakeRows([]int{3, 0})
	if tk.NRows() != 2 || tk.Value(0, 0).Str() != "dan" || tk.Value(1, 0).Str() != "ann" {
		t.Error("TakeRows wrong")
	}
	// Row labels travel with the rows.
	if tk.RowLabels().Value(0).Int() != 3 {
		t.Error("labels should follow rows")
	}
	sl := df.SliceRows(1, 3)
	if sl.NRows() != 2 || sl.Value(0, 0).Str() != "bob" {
		t.Error("SliceRows wrong")
	}
}

func TestSelectDropAppendColumns(t *testing.T) {
	df := sampleDF(t)
	sel := df.SelectCols([]int{2, 0})
	if sel.NCols() != 2 || sel.ColName(0) != "score" {
		t.Error("SelectCols wrong")
	}
	dropped := df.DropColumn(1)
	if dropped.NCols() != 2 || dropped.ColIndex("age") != -1 {
		t.Error("DropColumn wrong")
	}
	added, err := df.AppendColumn(types.String("flag"), vector.NewBool([]bool{true, false, true, false}, nil), types.Bool)
	if err != nil || added.NCols() != 4 || added.Domain(3) != types.Bool {
		t.Errorf("AppendColumn wrong: %v", err)
	}
	if _, err := df.AppendColumn(types.String("bad"), vector.NewBool([]bool{true}, nil), types.Bool); err == nil {
		t.Error("short column should fail")
	}
}

func TestWithColumnAndLabels(t *testing.T) {
	df := sampleDF(t)
	repl, err := df.WithColumn(1, vector.NewInt([]int64{1, 2, 3, 4}, nil), types.Int)
	if err != nil || repl.Value(0, 1).Int() != 1 {
		t.Errorf("WithColumn wrong: %v", err)
	}
	_, err = df.WithRowLabels(vector.Range(0, 2))
	if err == nil {
		t.Error("wrong label count should fail")
	}
	lab, err := df.WithColLabels([]types.Value{types.String("a"), types.String("b"), types.String("c")})
	if err != nil || lab.ColName(0) != "a" {
		t.Error("WithColLabels wrong")
	}
}

func TestEqualPostInduction(t *testing.T) {
	a := sampleDF(t)
	b := sampleDF(t)
	if !a.Equal(b) {
		t.Error("identical frames should be Equal")
	}
	// An explicitly typed twin equals the lazily typed one.
	typed, err := New([]string{"name", "age", "score"}, []vector.Vector{
		vector.NewObjectFromStrings([]string{"ann", "bob", "cat", "dan"}),
		vector.NewInt([]int64{30, 0, 25, 41}, []bool{false, true, false, false}),
		vector.NewFloat([]float64{1.5, 2.5, 3.5, 4.5}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(typed) {
		t.Error("lazy and explicit typing should compare equal")
	}
	if a.Equal(a.SliceRows(0, 3)) {
		t.Error("different shapes should not be equal")
	}
}

func TestHomogeneousAndMatrix(t *testing.T) {
	df := sampleDF(t)
	if df.Homogeneous() {
		t.Error("mixed frame is not homogeneous")
	}
	m := MustNew([]string{"a", "b"}, []vector.Vector{
		vector.NewFloat([]float64{1, 2}, nil),
		vector.NewFloat([]float64{3, 4}, nil),
	})
	if !m.Homogeneous() || !m.IsMatrix() {
		t.Error("float frame should be a matrix dataframe")
	}
	if Empty().IsMatrix() {
		t.Error("empty frame is not a matrix")
	}
}

func TestSharedCache(t *testing.T) {
	c := schema.NewCache()
	df := sampleDF(t).WithCache(c)
	df.Domain(1)
	df.TypedCol(1)
	_, misses := c.Stats()
	if misses == 0 {
		t.Error("cache should have been consulted")
	}
	if df.Cache() != c {
		t.Error("cache accessor wrong")
	}
}

func TestCompositeLabel(t *testing.T) {
	l := CompositeLabel(types.IntValue(2017), types.String("Q1"))
	if l.String() != "(2017, Q1)" {
		t.Errorf("composite label = %q", l.String())
	}
	single := CompositeLabel(types.String("x"))
	if single.String() != "x" {
		t.Error("single-part label should pass through")
	}
}

func TestReadCSVLazyTyping(t *testing.T) {
	csv := "city,pop,ratio\nparis,100,0.5\nrome,NA,0.25\n"
	df, err := ReadCSVString(csv, DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	if df.NRows() != 2 || df.NCols() != 3 {
		t.Fatalf("shape = %dx%d", df.NRows(), df.NCols())
	}
	for j := 0; j < 3; j++ {
		if df.DeclaredDomain(j) != types.Unspecified {
			t.Error("csv ingest should defer typing")
		}
	}
	if df.Domain(1) != types.Int || df.Domain(2) != types.Float {
		t.Error("induced domains wrong")
	}
	if !df.Value(1, 1).IsNull() {
		t.Error("NA cell should be null")
	}
}

func TestReadCSVEagerAndNoHeader(t *testing.T) {
	df, err := ReadCSVString("1,2\n3,4\n", CSVOptions{Comma: ',', Header: false, InduceNow: true})
	if err != nil {
		t.Fatal(err)
	}
	if df.NRows() != 2 || df.ColName(0) != "0" {
		t.Error("headerless read wrong")
	}
	if df.DeclaredDomain(0) != types.Int {
		t.Error("InduceNow should type eagerly")
	}
}

func TestReadCSVRagged(t *testing.T) {
	if _, err := ReadCSVString("a,b\n1\n", DefaultCSVOptions()); err == nil {
		t.Error("ragged csv should fail")
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	df := sampleDF(t)
	var buf bytes.Buffer
	if err := df.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVString(buf.String(), DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !df.Equal(back) {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", df, back)
	}
}

func TestFromRecords(t *testing.T) {
	df, err := FromRecords([]string{"x", "y"}, [][]any{
		{1, "a"},
		{2, nil},
		{3, "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if df.Domain(0) != types.Int || df.Domain(1) != types.Object {
		t.Errorf("domains = %v %v", df.Domain(0), df.Domain(1))
	}
	if !df.Value(1, 1).IsNull() {
		t.Error("nil record cell should be null")
	}
	if _, err := FromRecords([]string{"x"}, [][]any{{1, 2}}); err == nil {
		t.Error("ragged records should fail")
	}
	// Mixed int/float widens to float.
	mixed := MustFromRecords([]string{"v"}, [][]any{{1}, {2.5}})
	if mixed.Domain(0) != types.Float {
		t.Errorf("mixed numeric domain = %v", mixed.Domain(0))
	}
}

func TestRenderPrefixSuffix(t *testing.T) {
	records := make([][]any, 100)
	for i := range records {
		records[i] = []any{i, i * 2}
	}
	df := MustFromRecords([]string{"a", "b"}, records)
	out := df.Render(RenderOptions{MaxRows: 6, MaxCols: 4, MaxWidth: 10})
	if !strings.Contains(out, "...") {
		t.Error("long frame should render with ellipsis")
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "99") {
		t.Error("render should show prefix and suffix rows")
	}
	if !strings.Contains(out, "[100 rows x 2 columns]") {
		t.Error("render should show shape")
	}
	withDoms := df.Render(RenderOptions{ShowDomains: true})
	if !strings.Contains(withDoms, "a=int") {
		t.Error("domain footer missing")
	}
}

func TestRenderSmall(t *testing.T) {
	df := sampleDF(t)
	out := df.String()
	if !strings.Contains(out, "ann") || !strings.Contains(out, "score") {
		t.Errorf("render missing content:\n%s", out)
	}
	if strings.Contains(out, "...") {
		t.Error("small frame should not be elided")
	}
}
