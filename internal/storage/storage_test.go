package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vector"
)

func frame(t *testing.T, rows int) *core.DataFrame {
	t.Helper()
	records := make([][]any, rows)
	for i := range records {
		var v any = float64(i) * 1.5
		if i%7 == 0 {
			v = nil
		}
		records[i] = []any{i, "name-" + string(rune('a'+i%26)), v}
	}
	return core.MustFromRecords([]string{"id", "name", "score"}, records)
}

func newStore(t *testing.T, budget int) *Store {
	t.Helper()
	s, err := New(budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t, 0)
	df := frame(t, 20)
	if err := s.Put("a", df); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(df) {
		t.Error("round trip mismatch")
	}
	if !s.Contains("a") || s.Contains("b") {
		t.Error("contains wrong")
	}
}

func TestGetMissing(t *testing.T) {
	s := newStore(t, 0)
	if _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestSpillAndReload(t *testing.T) {
	s := newStore(t, 100) // tiny budget: ~1.5 frames of 20x3
	a, b, c := frame(t, 20), frame(t, 20), frame(t, 20)
	if err := s.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", b); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", c); err != nil {
		t.Fatal(err)
	}
	_, spills, _ := s.Stats()
	if spills == 0 {
		t.Fatal("expected spills under tiny budget")
	}
	// The spilled frame reloads from disk with identical content.
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Errorf("spilled frame corrupted:\n%s\nvs\n%s", got, a)
	}
	_, _, loads := s.Stats()
	if loads == 0 {
		t.Error("expected a disk load")
	}
	// Resident usage respects the budget (keep-frame overshoot aside).
	resident, _, _ := s.Stats()
	if resident > 2*100 {
		t.Errorf("resident = %d cells, budget 100", resident)
	}
}

func TestLRUSpillsOldest(t *testing.T) {
	s := newStore(t, 100)
	s.Put("old", frame(t, 20))
	s.Put("new", frame(t, 20))
	// "old" is least recently used and should have spilled; "new" should
	// be resident.
	if _, err := s.Get("new"); err != nil {
		t.Fatal(err)
	}
	_, spills, loads := s.Stats()
	if spills != 1 {
		t.Errorf("spills = %d", spills)
	}
	if loads != 0 {
		t.Errorf("getting the resident frame should not load, loads = %d", loads)
	}
}

func TestDeleteAndOverwrite(t *testing.T) {
	s := newStore(t, 0)
	s.Put("k", frame(t, 5))
	s.Delete("k")
	if s.Contains("k") {
		t.Error("delete failed")
	}
	s.Delete("k") // idempotent
	s.Put("k", frame(t, 5))
	s.Put("k", frame(t, 10)) // overwrite
	got, err := s.Get("k")
	if err != nil || got.NRows() != 10 {
		t.Error("overwrite wrong")
	}
}

func TestCloseDropsEverything(t *testing.T) {
	s, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", frame(t, 5))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Contains("k") {
		t.Error("close should drop entries")
	}
}

func TestTypedDomainsSurviveSpill(t *testing.T) {
	s := newStore(t, 1) // everything spills
	df := frame(t, 30)
	// Force induction so declared domains exist before spilling.
	for j := 0; j < df.NCols(); j++ {
		df.Domain(j)
	}
	s.Put("typed", df)
	s.Put("evict", frame(t, 30)) // pushes "typed" out
	got, err := s.Get("typed")
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain(0).String() != "int" || got.Domain(2).String() != "float" {
		t.Errorf("domains after reload: %v %v", got.Domain(0), got.Domain(2))
	}
	if !got.Equal(df) {
		t.Error("typed reload mismatch")
	}
}

func TestNullMaskAuthoritativeOverLiterals(t *testing.T) {
	// An Object cell holding the literal string "NA" must survive a
	// spill as a string, not become null.
	df := core.MustFromRecords([]string{"s"}, [][]any{{"NA"}, {nil}, {"x"}})
	s := newStore(t, 1)
	s.Put("tricky", df)
	s.Put("evict", frame(t, 50))
	got, err := s.Get("tricky")
	if err != nil {
		t.Fatal(err)
	}
	if got.Value(0, 0).IsNull() || got.Value(0, 0).Str() != "NA" {
		t.Errorf("literal NA string corrupted: %#v", got.Value(0, 0))
	}
	if !got.Value(1, 0).IsNull() {
		t.Error("true null lost")
	}
}

// A spilled frame comes back as the vectors that went out — not as their
// renderings. Every column here loses something through Σ*: sub-second
// timestamps truncate to seconds, a negative zero and the infinities ride on
// float formatting, a NaN payload has no text, a dictionary re-encodes, and a
// string cell spelled like a null is one. Row labels are typed too.
func TestSpillRoundTripKeepsTypedStorage(t *testing.T) {
	stamp := func(s string) int64 {
		ns, ok := types.ParseDatetime(s)
		if !ok {
			t.Fatalf("bad timestamp %q", s)
		}
		return ns
	}
	when := []int64{
		stamp("2020-01-02T03:04:05.123456789+05:30"),
		stamp("2020-01-02T03:04:05.000000001-08:00"),
		stamp("1999-12-31 23:59:59.5"),
		0,
	}
	strs := vector.NewObjectBuilder(4)
	strs.Append(types.String("NA")) // a string, not a null
	strs.AppendNull()
	strs.Append(types.String(""))
	strs.Append(types.String("x"))
	cols := []vector.Vector{
		vector.NewDatetime(when, []bool{false, false, false, true}),
		vector.NewFloat([]float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}, nil),
		vector.NewDict([]int32{1, 0, 1, 0}, []string{"b", "a"}, []bool{false, false, true, false}),
		strs.Build(),
	}
	labels := []types.Value{types.String("when"), types.IntValue(7), types.String("cat"), types.String("s")}
	domains := []types.Domain{types.Datetime, types.Float, types.Category, types.Object}
	rowLab := vector.NewDatetime([]int64{when[1], when[0], when[2], 42}, nil)
	df := core.MustBuild(cols, rowLab, labels, domains, nil)

	s := newStore(t, 0)
	if err := s.Put("k", df); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("k"); err != nil {
		t.Fatal(err)
	}
	if resident, spills, _ := s.Stats(); resident != 0 || spills != 1 {
		t.Fatalf("after Release: %d resident cells, %d spills; want 0 and 1", resident, spills)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(df) {
		t.Fatalf("spilled frame differs:\n%s\nwant:\n%s", got, df)
	}
	if !reflect.DeepEqual(got.Domains(), domains) {
		t.Errorf("declared domains %v, want %v", got.Domains(), domains)
	}
	for j, c := range cols {
		if reflect.TypeOf(got.Col(j)) != reflect.TypeOf(c) {
			t.Errorf("column %d came back as %T, went out as %T", j, got.Col(j), c)
		}
		for i := 0; i < c.Len(); i++ {
			if got.Col(j).IsNull(i) != c.IsNull(i) {
				t.Errorf("column %d row %d: null %v, want %v", j, i, got.Col(j).IsNull(i), c.IsNull(i))
			}
		}
		if !got.ColLabels()[j].Equal(labels[j]) || got.ColLabels()[j].Domain() != labels[j].Domain() {
			t.Errorf("column label %d = %#v, want %#v", j, got.ColLabels()[j], labels[j])
		}
	}
	if ns := got.Col(0).(*vector.Datetime).RawData(); !reflect.DeepEqual(ns[:3], when[:3]) {
		t.Errorf("timestamps %v, want %v", ns[:3], when[:3])
	}
	if f := got.Col(1).(*vector.Float).RawData(); !math.Signbit(f[0]) || f[0] != 0 || !math.IsNaN(f[3]) {
		t.Errorf("floats %v: want -0 first and a NaN payload last", f)
	}
	if _, dict, _, _, _ := vector.DictData(got.Col(2)); !reflect.DeepEqual(dict, []string{"b", "a"}) {
		t.Errorf("dictionary %q, want its own order [b a]", dict)
	}
	if v := got.Value(0, 3); v.IsNull() || v.Str() != "NA" {
		t.Errorf("the string NA came back as %#v", v)
	}
	if !reflect.DeepEqual(got.RowLabels(), vector.Vector(rowLab)) {
		t.Errorf("row labels %v, want %v", vector.Strings(got.RowLabels()), vector.Strings(rowLab))
	}
}

// A frame holding Composite cells has no block form: under pressure, and
// under Release, it stays resident and intact instead of being flattened to
// its rendering — and it does not stop other frames from spilling.
func TestFrameWithoutWireFormStaysResident(t *testing.T) {
	sub := frame(t, 3)
	anyCol := vector.NewAny([]types.Value{types.CompositeValue(sub), types.NullValue(types.Composite)})
	df := core.MustNew([]string{"k", "sub"}, []vector.Vector{vector.NewInt([]int64{1, 2}, nil), anyCol})

	s := newStore(t, 1)
	if err := s.Put("composite", df); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("plain", frame(t, 10)); err != nil {
		t.Fatalf("a pinned frame must not fail the next Put: %v", err)
	}
	if err := s.Release("composite"); err != nil {
		t.Fatalf("Release of a frame without a wire form: %v", err)
	}
	if err := s.Put("other", frame(t, 10)); err != nil { // pushes "plain" out, past the pinned frame
		t.Fatal(err)
	}
	resident, spills, _ := s.Stats()
	if spills != 1 {
		t.Errorf("spills = %d, want 1 (plain only)", spills)
	}
	if want := 2*2 + 1 + 10*3 + 1; resident != want {
		t.Errorf("resident = %d cells, want %d (the composite frame and the newest)", resident, want)
	}
	if !s.Resident("composite") || s.Resident("plain") || s.Resident("absent") {
		t.Error("Resident must report the pinned frame, not the spilled one or a missing key")
	}
	got, err := s.Get("composite")
	if err != nil {
		t.Fatal(err)
	}
	if got != df {
		t.Error("the composite frame should come back as the very frame that was put")
	}
	if cell, ok := got.Col(1).Value(0).CompositePayload().(*core.DataFrame); !ok || !cell.Equal(sub) {
		t.Error("composite cell lost its sub-frame")
	}
}

// TestResidentFollowsTheFrame: Resident is true while a frame is in memory,
// false once Release wrote it out, true again after Get loads it back, and
// false for a deleted or never-stored key.
func TestResidentFollowsTheFrame(t *testing.T) {
	s := newStore(t, 0)
	if err := s.Put("a", frame(t, 20)); err != nil {
		t.Fatal(err)
	}
	if !s.Resident("a") {
		t.Error("a stored frame must be resident")
	}
	if err := s.Release("a"); err != nil {
		t.Fatal(err)
	}
	if s.Resident("a") || !s.Contains("a") {
		t.Error("a released frame must be stored but not resident")
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatal(err)
	}
	if !s.Resident("a") {
		t.Error("a frame loaded back must be resident")
	}
	s.Delete("a")
	if s.Resident("a") || s.Resident("never") {
		t.Error("a deleted or absent key must not be resident")
	}
}

// TestBudgetSetterAndSpillTo: a store makes its spill directory on the first
// spill, not before; SetBudget enforces a new budget at once; SpillTo
// spills least recently used frames down to its target and counts them; and
// a closed store removes the directory and refuses to spill again.
func TestBudgetSetterAndSpillTo(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	dirs := func() int {
		m, err := filepath.Glob(filepath.Join(os.TempDir(), "dfstore-*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}
	s, _ := New(0)
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, frame(t, 20)); err != nil { // 61 cells each
			t.Fatal(err)
		}
	}
	if _, err := s.Get("a"); err != nil { // a is now the most recently used
		t.Fatal(err)
	}
	if dirs() != 0 {
		t.Fatal("a store that never spilled made a directory")
	}
	if err := s.SetBudget(130); err != nil {
		t.Fatal(err)
	}
	if resident, spills, _ := s.Stats(); resident != 122 || spills != 1 || s.Resident("b") {
		t.Errorf("after SetBudget(130): %d resident cells, %d spills, b resident %v; want 122, 1, false", resident, spills, s.Resident("b"))
	}
	if dirs() != 1 {
		t.Fatalf("store dirs after the first spill = %d, want 1", dirs())
	}
	if n := s.SpillTo(61); n != 1 || s.Resident("c") || !s.Resident("a") {
		t.Errorf("SpillTo(61) spilled %d, c resident %v, a resident %v; want 1, false, true", n, s.Resident("c"), s.Resident("a"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if dirs() != 0 {
		t.Error("Close left the spill directory")
	}
	s.Put("late", frame(t, 5))
	if err := s.Release("late"); err == nil {
		t.Error("a closed store spilled")
	}
	if dirs() != 0 {
		t.Error("a spill after Close made a directory")
	}
}
