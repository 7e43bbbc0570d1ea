package schema

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
	"repro/internal/vector"
)

// oracleInduce is the induction this package ran before the fused kernel,
// kept as the reference the kernel is checked against: every non-null cell
// is probed against every scalar domain's boxing parser and inserted into a
// distinct set, and a second pass (Parse, still the package's own) builds
// the typed vector. The kernel must agree with the pair cell for cell.
func oracleInduce(v vector.Vector) types.Domain {
	obj, ok := v.(*vector.Object)
	if !ok {
		if v.Domain() != types.Object {
			return v.Domain()
		}
		var data []string
		for i := 0; i < v.Len(); i++ {
			if !v.IsNull(i) {
				data = append(data, v.Value(i).String())
			}
		}
		return oracleInduceStrings(data)
	}
	if obj.NullCount() == obj.Len() {
		return types.Object
	}
	return oracleInduceStrings(obj.RawData())
}

func oracleInduceStrings(data []string) types.Domain {
	member := func(d types.Domain, s string) bool {
		_, err := d.Parse(s)
		return err == nil
	}
	canBool, canInt, canFloat, canDatetime := true, true, true, true
	nonNull := 0
	distinct := make(map[string]struct{})
	const distinctCap = 4096
	for _, s := range data {
		if types.IsNullLiteral(s) {
			continue
		}
		nonNull++
		canBool = canBool && member(types.Bool, s)
		canInt = canInt && member(types.Int, s)
		canFloat = canFloat && member(types.Float, s)
		canDatetime = canDatetime && member(types.Datetime, s)
		if len(distinct) < distinctCap {
			distinct[s] = struct{}{}
		}
	}
	if nonNull == 0 {
		return types.Object
	}
	switch {
	case canBool:
		return types.Bool
	case canInt:
		return types.Int
	case canFloat:
		return types.Float
	case canDatetime:
		return types.Datetime
	}
	if nonNull >= 16 && len(distinct) < distinctCap && len(distinct)*10 <= nonNull {
		return types.Category
	}
	return types.Object
}

// checkAgainstOracle asserts the fused kernel and the two-pass oracle agree
// on v: same domain, and a typed vector with the same storage — values
// (float zeros by sign), null mask, and for Category the dictionary in the
// same order. A column inducing Object must come back as itself.
func checkAgainstOracle(t *testing.T, v vector.Vector, what string) {
	t.Helper()
	wantDom := oracleInduce(v)
	want := Parse(v, wantDom)
	gotDom, got := InduceAndParse(v)
	if gotDom != wantDom {
		t.Errorf("%s: induced %v, oracle %v\ncells: %s", what, gotDom, wantDom, show(v))
		return
	}
	if d := Induce(v); d != wantDom {
		t.Errorf("%s: Induce = %v, InduceAndParse = %v", what, d, wantDom)
	}
	if wantDom == types.Object {
		if got != v {
			t.Errorf("%s: an Object column is its own typed form; got a %T", what, got)
		}
		return
	}
	if !vector.Equal(got, want) {
		t.Errorf("%s: typed vector differs from the oracle's\ngot:  %s\nwant: %s", what, show(got), show(want))
		return
	}
	for i := 0; i < want.Len(); i++ {
		if got.IsNull(i) != want.IsNull(i) {
			t.Errorf("%s: null mask differs at %d", what, i)
			return
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: typed storage differs from the oracle's:\ngot:  %#v\nwant: %#v", what, got, want)
		return
	}
	if gf, _, _, ok := vector.FloatData(got); ok {
		wf, _, _, _ := vector.FloatData(want)
		for i := range wf {
			if math.Float64bits(gf[i]) != math.Float64bits(wf[i]) {
				t.Errorf("%s: float %d is %v, oracle %v (bits differ)", what, i, gf[i], wf[i])
				return
			}
		}
	}
}

// show renders a column for a failure message, eliding the middle of a long
// one.
func show(v vector.Vector) string {
	cells := vector.Strings(v)
	if len(cells) > 48 {
		return fmt.Sprintf("%q … %d more … %q", cells[:24], len(cells)-48, cells[len(cells)-24:])
	}
	return fmt.Sprintf("%q", cells)
}

// The cell pools the property test and the fuzz seeds draw from: every
// domain's spellings, the edges of each parser, and near misses.
var (
	nullCells  = []string{"", "NA", "N/A", "NaN", "nan", "null", "NULL", "None", "<NA>"}
	nearNulls  = []string{"na", "Null", " NA", "NA ", "n/a", "none", "<na>", "NAN", " NaN", "-nan", "nil", " "}
	boolCells  = []string{"true", "false", "t", "f", "T", "F", "True", "FALSE", " true ", "\tf"}
	intCells   = []string{"0", "1", "-1", "+1", "-0", "007", " 42 ", "9223372036854775807", "-9223372036854775808", "12345"}
	wideCells  = []string{"9223372036854775808", "-9223372036854775809", "1.5", "-0.0", "1e3", "1E-3", "0x1p-2", "inf", "-Inf", "+Infinity", ".5", "5.", "1_0", "1e999", "0x10"}
	floatCells = []string{"1.5", "-0", "-0.0", "2.25", "1e3", "0x1p-2", "inf", "-inf", " NaN", "NAN", "3", "+7", "1e-320"}
	dateCells  = []string{
		"2020-01-02T03:04:05.123456789Z", "2020-01-02T03:04:05.5+05:30", "2020-01-02T03:04:05-08:00",
		"2020-01-02T03:04:05Z", "2020-01-02 03:04:05", "2020-01-02 03:04:05.25", "2020-01-02T03:04:05",
		"2020-01-02", "01/02/2020 03:04:05", "01/02/2020", " 1999-12-31 ", "2262-04-11",
	}
	nearDates = []string{"2020-13-01", "2020-01-32", "2020/01/02", "01-02-2020", "2020-01-02T", "20200102", "2020-1-2"}
	words     = []string{"red", "green", "blue", "x", "Yes", "no", "a,b", "tail-string", "ünï", "0x", "e3", "--1", "1 2", "t rue"}
)

func pick(r *rand.Rand, pool []string) string { return pool[r.Intn(len(pool))] }

// randomColumn draws one raw column: a length from the edges or at random,
// a main pool, a null rate, and sometimes foreign cells from another pool
// (anywhere, including the last row, so a widening or a fall to strings
// can happen after any prefix).
func randomColumn(r *rand.Rand) []string {
	pools := [][]string{boolCells, intCells, floatCells, dateCells, words, wideCells, nearNulls, nearDates, nullCells}
	lengths := []int{0, 1, 2, 15, 16, 17, 31, 160}
	n := lengths[r.Intn(len(lengths))]
	if r.Intn(3) == 0 {
		n = r.Intn(200)
	}
	main := pools[r.Intn(len(pools))]
	if r.Intn(4) == 0 {
		main = main[:1+r.Intn(len(main))] // few distinct values: Category territory
	}
	nullRate := []float64{0, 0, 0.1, 0.5, 1}[r.Intn(5)]
	out := make([]string, n)
	for i := range out {
		if r.Float64() < nullRate {
			out[i] = pick(r, nullCells)
		} else {
			out[i] = pick(r, main)
		}
	}
	for k := r.Intn(3); k > 0 && n > 0; k-- {
		out[r.Intn(n)] = pick(r, pools[r.Intn(len(pools))])
	}
	if n > 0 && r.Intn(4) == 0 {
		out[n-1] = pick(r, pools[r.Intn(len(pools))])
	}
	return out
}

// A fixed seed and one fresh seed per run (logged on failure): the kernel
// agrees with the oracle over random raw columns, flat and behind the
// selection views the shuffle routes.
func TestFusedInductionMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, time.Now().UnixNano()} {
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < 3000; k++ {
			data := randomColumn(r)
			what := fmt.Sprintf("seed %d case %d", seed, k)
			obj := vector.NewObjectFromStrings(data)
			checkAgainstOracle(t, obj, what)
			if len(data) > 0 && k%3 == 0 {
				idx := make([]int, r.Intn(2*len(data)))
				for i := range idx {
					idx[i] = r.Intn(len(data)+1) - 1 // -1 routes a null
				}
				checkAgainstOracle(t, vector.TakeView(obj, idx), what+" viewed")
			}
			if t.Failed() {
				t.Fatalf("stopping at the first failing column (seed %d)", seed)
			}
		}
	}
}

// The cases a random draw is unlikely to hit.
func TestFusedInductionEdges(t *testing.T) {
	repeat := func(n int, cell func(i int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = cell(i)
		}
		return out
	}
	mod := func(m int) func(int) string {
		return func(i int) string { return fmt.Sprintf("v%d", i%m) }
	}
	cases := map[string][]string{
		"empty":                       {},
		"one null":                    {"NA"},
		"one int":                     {"7"},
		"all nine nulls":              nullCells,
		"int then float last":         append(repeat(40, func(i int) string { return fmt.Sprint(i) }), "0.5"),
		"negative zero before float":  {"-0", "1", "2.5"},
		"int overflow widens":         {"1", "9223372036854775808"},
		"int then junk":               {"1", "2", "x"},
		"float then junk":             {"1.5", "x"},
		"float out of range":          {"1.5", "1e999"},
		"bool then int":               {"true", "1"},
		"int then bool":               {"1", "true"},
		"date then int":               {"2020-01-02", "20200102"},
		"spelled NaN is a float null": {"1.5", " NaN", "NAN", "nan"},
		"only spelled NaN":            {"NAN", " NaN"},
		"offsets":                     {"2020-01-02T03:04:05.123456789+05:30", "2020-01-02T03:04:05.000000001-08:00"},
		"15 rows 1 value":             repeat(15, mod(1)),
		"16 rows 1 value":             repeat(16, mod(1)),
		"16 non-null among nulls":     append(repeat(16, mod(1)), "NA", "", "null"),
		"15 non-null among nulls":     append(repeat(15, mod(1)), "NA", "", "null"),
		"distinct*10 == nonNull":      repeat(40, mod(4)),
		"distinct*10 == nonNull + 1":  repeat(39, mod(4)),
		"4095 distinct":               repeat(40950, mod(4095)),
		"4096 distinct":               repeat(40960, mod(4096)),
		"4095 distinct, nulls pad":    append(repeat(40950, mod(4095)), repeat(50, func(int) string { return "" })...),
		"wide then narrow":            append(repeat(300, func(i int) string { return fmt.Sprintf("u%d", i) }), repeat(4000, mod(2))...),
		"category with near nulls":    repeat(64, func(i int) string { return []string{"na", "NA", "x"}[i%3] }),
		"untrimmed categories differ": repeat(64, func(i int) string { return []string{"x", " x", "x "}[i%3] }),
	}
	for name, data := range cases {
		checkAgainstOracle(t, vector.NewObjectFromStrings(data), name)
	}

	// An unmasked null literal — a string cell that happens to read "NA" —
	// still parses to null under a typed domain, and stays a string under
	// Object.
	b := vector.NewObjectBuilder(3)
	b.Append(types.String("NA"))
	b.Append(types.String("1"))
	b.AppendNull()
	checkAgainstOracle(t, b.Build(), "unmasked literal beside ints")
	b = vector.NewObjectBuilder(2)
	b.Append(types.String("NA"))
	b.AppendNull()
	checkAgainstOracle(t, b.Build(), "unmasked literal alone")

	// A view of a view of raw storage flattens first.
	obj := vector.NewObjectFromStrings([]string{"3", "NA", "1.5", "2"})
	inner := vector.TakeView(obj, []int{3, 2, 1, 0, -1})
	got, typed := InduceAndParse(vector.TakeView(inner, []int{0, 1, 4}))
	if got != types.Float || typed.Len() != 3 || typed.Value(0).Float() != 2 || typed.Value(1).Float() != 1.5 || !typed.IsNull(2) {
		t.Errorf("stacked views: %v %q", got, vector.Strings(typed))
	}
}

// FuzzInduceAndParse holds the same identity over arbitrary cells: text is
// split on newlines and repeated rep times, so a few fuzzed bytes reach the
// Category thresholds.
func FuzzInduceAndParse(f *testing.F) {
	for _, pool := range [][]string{nullCells, nearNulls, boolCells, intCells, wideCells, floatCells, dateCells, nearDates, words} {
		f.Add(strings.Join(pool, "\n"), uint8(1))
		f.Add(strings.Join(pool[:2], "\n"), uint8(20))
	}
	f.Add("1\n2\n-0\n2.5", uint8(1))
	f.Add("red\nblue", uint8(8))
	f.Fuzz(func(t *testing.T, text string, rep uint8) {
		cells := strings.Split(text, "\n")
		data := make([]string, 0, len(cells)*int(rep%32+1))
		for k := 0; k <= int(rep%32); k++ {
			data = append(data, cells...)
		}
		obj := vector.NewObjectFromStrings(data)
		checkAgainstOracle(t, obj, "fuzz")
		idx := make([]int, 0, len(data))
		for i := len(data) - 1; i >= -1; i -= 2 {
			idx = append(idx, i)
		}
		checkAgainstOracle(t, vector.TakeView(obj, idx), "fuzz viewed")
	})
}

func induceStrings(data []string) types.Domain {
	return Induce(vector.NewObjectFromStrings(data))
}

func TestInduceStrings(t *testing.T) {
	cases := []struct {
		data []string
		want types.Domain
	}{
		{[]string{"1", "2", "3"}, types.Int},
		{[]string{"1", "2.5", "3"}, types.Float},
		{[]string{"true", "false", "NA"}, types.Bool},
		{[]string{"2020-01-01", "2021-06-02"}, types.Datetime},
		{[]string{"hello", "world"}, types.Object},
		{[]string{"1", "two"}, types.Object},
		{[]string{"", "NA", "null"}, types.Object}, // all-null induces Object
		{[]string{}, types.Object},
		{[]string{"0", "1"}, types.Int}, // 0/1 induce int, not bool (pandas semantics)
	}
	for _, c := range cases {
		if got := induceStrings(c.data); got != c.want {
			t.Errorf("Induce(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestInduceCategory(t *testing.T) {
	// Low-cardinality strings induce Category: 200 rows, 2 values.
	data := make([]string, 200)
	for i := range data {
		if i%2 == 0 {
			data[i] = "red"
		} else {
			data[i] = "blue"
		}
	}
	if got := induceStrings(data); got != types.Category {
		t.Errorf("low-cardinality = %v, want category", got)
	}
	// High-cardinality strings stay Object.
	for i := range data {
		data[i] = fmt.Sprintf("value-%d", i)
	}
	if got := induceStrings(data); got != types.Object {
		t.Errorf("high-cardinality = %v, want object", got)
	}
}

func TestInduceTypedVectorIsIdentity(t *testing.T) {
	v := vector.NewInt([]int64{1, 2}, nil)
	if got := Induce(v); got != types.Int {
		t.Errorf("Induce(typed) = %v", got)
	}
}

func TestInduceSample(t *testing.T) {
	data := make([]string, 100)
	for i := range data {
		data[i] = fmt.Sprintf("%d", i+2) // distinct ints (not bool literals)
	}
	data[99] = "tail-string-99" // beyond the sample
	v := vector.NewObjectFromStrings(data)
	if got := InduceSample(v, 50); got != types.Int {
		t.Errorf("sampled induction = %v, want int (sample misses the tail)", got)
	}
	if got := Induce(v); got != types.Object {
		t.Errorf("full induction = %v, want object (high cardinality, mixed)", got)
	}
}

func TestParse(t *testing.T) {
	v := vector.NewObjectFromStrings([]string{"1", "NA", "3", "junk"})
	p := Parse(v, types.Int)
	if p.Domain() != types.Int {
		t.Fatalf("parsed domain = %v", p.Domain())
	}
	if p.Value(0).Int() != 1 || p.Value(2).Int() != 3 {
		t.Error("parsed values wrong")
	}
	if !p.IsNull(1) || !p.IsNull(3) {
		t.Error("null and unparseable should both be null")
	}
	// Parsing into the same domain returns the input unchanged.
	if Parse(p, types.Int) != p {
		t.Error("same-domain parse should be identity")
	}
}

func TestParseNonObjectRerenders(t *testing.T) {
	v := vector.NewInt([]int64{1, 0}, nil)
	p := Parse(v, types.Bool)
	if p.Domain() != types.Bool || !p.Value(0).Bool() || p.Value(1).Bool() {
		t.Errorf("int→bool parse wrong: %v %v", p.Value(0), p.Value(1))
	}
}

func TestInduceAndParse(t *testing.T) {
	d, p := InduceAndParse(vector.NewObjectFromStrings([]string{"1.5", "2.5"}))
	if d != types.Float || p.Value(1).Float() != 2.5 {
		t.Errorf("InduceAndParse = %v, %v", d, p.Value(1))
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	c := NewCache()
	v := vector.NewObjectFromStrings([]string{"1", "2"})
	if c.Induce(v) != types.Int {
		t.Fatal("induction wrong")
	}
	c.Induce(v)
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits %d misses, want 1/1", hits, misses)
	}
	// The induction's one pass already parsed: Parse is a hit.
	p1 := c.Parse(v, types.Int)
	p2 := c.Parse(v, types.Int)
	if p1 != p2 {
		t.Error("cached parse should return the identical vector")
	}
	if hits, misses = c.Stats(); hits != 3 || misses != 1 {
		t.Errorf("stats after two parses = %d hits %d misses, want 3/1", hits, misses)
	}
	if r, ok := c.Resolved(v, types.Unspecified); !ok || r != p1 {
		t.Error("Resolved should return the induction's typed vector")
	}
	if _, ok := c.Resolved(v, types.Float); ok {
		t.Error("Resolved under a domain nothing parsed into should miss")
	}
	if _, ok := c.Resolved(vector.NewObjectFromStrings([]string{"1"}), types.Unspecified); ok {
		t.Error("Resolved of an unseen column should miss")
	}
	c.Invalidate()
	p3 := c.Parse(v, types.Int)
	if p3 == p1 {
		t.Error("invalidate should drop cached parses")
	}
	// Typed vectors bypass the cache entirely.
	if c.Induce(p1) != types.Int {
		t.Error("typed induce")
	}
}

// Tasks racing to induce one column all get the same domain and — once the
// first has published — the same typed vector.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	v := vector.NewObjectFromStrings([]string{"1", "2", "3"})
	done := make(chan vector.Vector)
	for i := 0; i < 8; i++ {
		go func() {
			var last vector.Vector
			defer func() { done <- last }()
			for k := 0; k < 100; k++ {
				if c.Induce(v) != types.Int {
					t.Error("concurrent induce wrong")
					return
				}
				last = c.Parse(v, types.Int)
			}
		}()
	}
	want, _ := c.Resolved(v, types.Unspecified)
	for i := 0; i < 8; i++ {
		if got := <-done; want == nil {
			want = got
		} else if got != want {
			t.Error("racing inductions published more than one typed vector")
		}
	}
}
