package algebra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/vector"
)

// JoinTable is the hash index over a join's right input behind every
// keyed JOIN: JoinFrames builds one and probes it with its left input, and
// MODIN builds one per inner/left join, once, and probes it from every left
// band. The key-id resolver gives each distinct non-null right key a dense
// id, and flat int32 chains list each key's right rows in right order (id →
// first row, row → next row with the same key), so a build allocates
// O(rows) once and a probe emits matches in JoinFrames order. A built table
// is read-only: any number of goroutines may Join against it at once.
type JoinTable struct {
	right    *core.DataFrame
	on       []string
	onLabels bool
	keys     []vector.Vector
	err      error // the right input lacks a key column: every Join fails
	index    keyIndex
	firstRow []int32 // key id → first right row with this key (the collision-check anchor)
	nextRow  []int32 // right row → next row with the same key, -1 ends
	unique   bool    // every non-null right row is its own key: a probe row matches at most once
}

// BuildJoinTable indexes the right input of a join on its key columns on,
// or on its row labels when onLabels is set. Null-keyed rows are skipped:
// they can never match. A right input that lacks a key column yields a
// table whose every Join fails, after the left input's keys are checked, so
// a join names a key missing from both inputs as missing from the left.
func BuildJoinTable(right *core.DataFrame, on []string, onLabels bool) *JoinTable {
	t := &JoinTable{right: right, on: on, onLabels: onLabels}
	if t.keys, t.err = joinKeys(right, on, onLabels, "right"); t.err != nil || len(t.keys) == 0 {
		return t
	}
	// Every probe compares against these keys: a gathered right side's
	// chunked keys are read from their flat copies, not piece by piece.
	// Other keys, a filtered side's views among them, are read as they are.
	for k, key := range t.keys {
		if _, ok := key.(*vector.Chunked); ok {
			t.keys[k] = vector.Materialize(key)
		}
	}
	n := right.NRows()
	// A build of n rows holds at most n keys: size the index and the key
	// slice for that once, instead of growing them by appends.
	t.index.reserve(n)
	t.firstRow = make([]int32, 0, n)
	t.nextRow = make([]int32, n)
	// Each row's key id goes into its chain slot first (-1 for a null key);
	// then rows go on their key's chain last to first, so every chain ends up
	// in right order with no per-key tail to track.
	build := t.index.bind(t.keys, n, &t.firstRow, nil)
	build.nullsApart = true
	build.ids(0, t.nextRow)
	for e := range t.firstRow {
		t.firstRow[e] = -1
	}
	nonNull := 0
	for i := n - 1; i >= 0; i-- {
		if e := t.nextRow[i]; e >= 0 {
			nonNull++
			t.nextRow[i], t.firstRow[e] = t.firstRow[e], int32(i)
		}
	}
	t.unique = len(t.firstRow) == nonNull
	return t
}

// Join probes the table with every row of left and assembles the joined
// frame in JoinFrames order: left rows in order, each followed by its
// matching right rows in right order; an unmatched left row of a left or
// outer join is null-extended, and the unmatched right rows of a right or
// outer join follow in right order. Keys are checked left input first.
func (t *JoinTable) Join(left *core.DataFrame, kind expr.JoinKind) (*core.DataFrame, error) {
	if !t.onLabels && len(t.on) == 0 {
		return nil, fmt.Errorf("algebra: %s join requires key columns or onLabels", kind)
	}
	keys, err := joinKeys(left, t.on, t.onLabels, "left")
	if err != nil {
		return nil, err
	}
	if t.err != nil {
		return nil, t.err
	}
	leftIdx, rightIdx := t.probe(left.NRows(), keys, kind)
	if kind == expr.JoinRight || kind == expr.JoinOuter {
		rightMatched := make([]bool, t.right.NRows())
		for _, r := range rightIdx {
			if r >= 0 {
				rightMatched[r] = true
			}
		}
		for r, matched := range rightMatched {
			if !matched {
				leftIdx = append(leftIdx, -1)
				rightIdx = append(rightIdx, r)
			}
		}
	}
	return assembleJoin(left, t.right, t.on, t.onLabels, leftIdx, rightIdx)
}

// probe matches the n rows of the resolved probe key vectors against the
// table and returns the (leftIdx, rightIdx) pairs: each probe row followed
// by its matching right rows in right order; for left and outer joins an
// unmatched probe row emits (i, -1).
func (t *JoinTable) probe(n int, keys []vector.Vector, kind expr.JoinKind) (leftIdx, rightIdx []int) {
	keepUnmatched := kind == expr.JoinLeft || kind == expr.JoinOuter
	if t.unique {
		// At most one pair per probe row: size the output once.
		leftIdx, rightIdx = make([]int, 0, n), make([]int, 0, n)
	}
	k := t.index.bind(keys, n, nil, func(e int32) ([]vector.Vector, int) { return t.keys, int(t.firstRow[e]) })
	k.nullsApart = true
	ids := make([]int32, min(n, groupChunk))
	for lo := 0; lo < n; lo += len(ids) { // not k.each: the index lists stay in registers
		ids = ids[:min(len(ids), n-lo)]
		k.ids(lo, ids)
		for r, e := range ids {
			if e < 0 {
				if keepUnmatched {
					leftIdx, rightIdx = append(leftIdx, lo+r), append(rightIdx, -1)
				}
				continue
			}
			for j := t.firstRow[e]; j >= 0; j = t.nextRow[j] {
				leftIdx, rightIdx = append(leftIdx, lo+r), append(rightIdx, int(j))
			}
		}
	}
	return leftIdx, rightIdx
}

// joinKeys resolves df's typed join key vectors — its row labels, or its
// key columns by name — naming df as the join's side input when one is
// missing.
func joinKeys(df *core.DataFrame, on []string, onLabels bool, side string) ([]vector.Vector, error) {
	if onLabels {
		return []vector.Vector{df.RowLabels()}, nil
	}
	keys := make([]vector.Vector, len(on))
	for k, name := range on {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: join key %q missing from %s input", name, side)
		}
		keys[k] = df.TypedCol(j)
	}
	return keys, nil
}
