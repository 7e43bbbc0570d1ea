package optimizer

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

func fpKey(t *testing.T, n algebra.Node) string {
	t.Helper()
	key, _, ok := Fingerprint(n)
	if !ok {
		t.Fatalf("plan should be cacheable:\n%s", algebra.Render(n))
	}
	return key
}

func selGt(src algebra.Node, col string, v int64) algebra.Node {
	return &algebra.Selection{
		Input: src,
		Where: expr.WhereCompare(col, vector.CmpGt, types.IntValue(v)),
		Desc:  "test",
	}
}

// Renamed-but-identical plans MUST share a fingerprint: statement and
// source names are user-chosen and canonicalized away.
func TestFingerprintIgnoresNames(t *testing.T) {
	df := source(t).DF
	a := selGt(&algebra.Source{DF: df, Name: "alice_frame"}, "v", 2)
	b := selGt(&algebra.Source{DF: df, Name: "bobs-copy"}, "v", 2)
	ka, sa, _ := Fingerprint(a)
	kb, sb, _ := Fingerprint(b)
	if ka != fpKey(t, a) || ka != kb {
		t.Errorf("renamed-identical plans should share keys:\n%q\n%q", ka, kb)
	}
	if len(sa) != 1 || len(sb) != 1 || sa[0] != sb[0] {
		t.Errorf("sources should be the shared frame")
	}
	if SourceVersion(sa) != SourceVersion(sb) {
		t.Error("same frame pointer should give the same source version")
	}
}

// Distinct plans must NOT share fingerprints: literals, operators, columns,
// operator parameters and column-list boundaries all separate keys.
func TestFingerprintCollisions(t *testing.T) {
	src := source(t)
	base := fpKey(t, selGt(src, "v", 2))
	distinct := []algebra.Node{
		selGt(src, "v", 3), // different literal
		selGt(src, "k", 2), // different column
		&algebra.Selection{Input: src, Where: expr.WhereEquals("v", types.IntValue(2))}, // different op
		&algebra.Selection{Input: src, Where: expr.WhereEquals("v", types.String("2"))}, // same rendering, different domain
		&algebra.Limit{Input: selGt(src, "v", 2), N: 5},                                 // extra operator
		// Datetime literals 1 ns apart (2020-09-13 12:26:40.1): a rendering
		// to the second would merge them.
		&algebra.Selection{Input: src, Where: expr.WhereCompare("v", vector.CmpGt, types.DatetimeFromNanos(1_600_000_000_100_000_000))},
		&algebra.Selection{Input: src, Where: expr.WhereCompare("v", vector.CmpGt, types.DatetimeFromNanos(1_600_000_000_100_000_001))},
	}
	seen := map[string]int{base: -1}
	for i, plan := range distinct {
		key, _, ok := Fingerprint(plan)
		if !ok {
			t.Fatalf("plan %d should be cacheable", i)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("plans %d and %d collide on %q", prev, i, key)
		}
		seen[key] = i
	}

	// Column-list boundaries: PROJECTION("a,b") vs PROJECTION("a","b").
	p1 := fpKey(t, &algebra.Projection{Input: src, Cols: []string{"a,b"}})
	p2 := fpKey(t, &algebra.Projection{Input: src, Cols: []string{"a", "b"}})
	if p1 == p2 {
		t.Errorf("column-list boundary collision: %q", p1)
	}
}

// Tree shape must be part of the key: with flat pre-order rendering,
// JOIN(SEL(a), b) and JOIN(a, SEL(b)) could collide.
func TestFingerprintTreeShape(t *testing.T) {
	a, b := source(t), source(t)
	left := &algebra.Join{Left: selGt(a, "v", 2), Right: b, On: []string{"k"}}
	right := &algebra.Join{Left: a, Right: selGt(b, "v", 2), On: []string{"k"}}
	if fpKey(t, left) == fpKey(t, right) {
		t.Error("selection side should distinguish join fingerprints")
	}
}

// Rename maps canonicalize independent of map iteration order.
func TestFingerprintRenameDeterministic(t *testing.T) {
	src := source(t)
	mk := func() algebra.Node {
		return &algebra.Rename{Input: src, Mapping: map[string]string{
			"a": "x", "b": "y", "c": "z", "d": "w", "e": "u",
		}}
	}
	want := fpKey(t, mk())
	for i := 0; i < 20; i++ {
		if got := fpKey(t, mk()); got != want {
			t.Fatalf("rename fingerprint unstable: %q vs %q", got, want)
		}
	}
}

// Self-joins reuse the placeholder; distinct frames get distinct ones.
func TestFingerprintSourcePlaceholders(t *testing.T) {
	df := source(t).DF
	selfJoin := &algebra.Join{
		Left:  &algebra.Source{DF: df, Name: "l"},
		Right: &algebra.Source{DF: df, Name: "r"},
		On:    []string{"k"},
	}
	_, sources, ok := Fingerprint(selfJoin)
	if !ok || len(sources) != 1 {
		t.Fatalf("self-join should collapse to one source, got %d", len(sources))
	}

	other := source(t).DF // same content, different frame
	twoFrames := &algebra.Join{
		Left:  &algebra.Source{DF: df, Name: "l"},
		Right: &algebra.Source{DF: other, Name: "r"},
		On:    []string{"k"},
	}
	_, sources2, _ := Fingerprint(twoFrames)
	if len(sources2) != 2 {
		t.Fatalf("distinct frames should stay distinct sources, got %d", len(sources2))
	}
	if SourceVersion(sources) == SourceVersion(sources2) {
		t.Error("different source sets should version differently")
	}
}

// Rebinding a base frame changes the source version, so cached results
// cannot be served stale.
func TestFingerprintRebindChangesVersion(t *testing.T) {
	old := source(t).DF
	rebound := core.MustFromRecords(
		[]string{"k", "v"},
		[][]any{{"z", 9}},
	)
	kOld, sOld, _ := Fingerprint(selGt(&algebra.Source{DF: old, Name: "t"}, "v", 2))
	kNew, sNew, _ := Fingerprint(selGt(&algebra.Source{DF: rebound, Name: "t"}, "v", 2))
	if kOld != kNew {
		t.Error("rebind should keep the plan fingerprint (shape unchanged)")
	}
	if SourceVersion(sOld) == SourceVersion(sNew) {
		t.Error("rebind must change the source version")
	}
}

// Opaque closures cannot be fingerprinted.
func TestFingerprintRejectsOpaquePlans(t *testing.T) {
	src := source(t)
	opaque := []algebra.Node{
		&algebra.Selection{Input: src, Pred: func(expr.Row) bool { return true }, Desc: "opaque"},
		&algebra.Map{Input: src, Fn: expr.MapFn{Name: "udf", Fn: func(expr.Row) []types.Value { return nil }}},
	}
	for i, plan := range opaque {
		if _, _, ok := Fingerprint(plan); ok {
			t.Errorf("plan %d carries a closure and must not be cacheable", i)
		}
	}
}
