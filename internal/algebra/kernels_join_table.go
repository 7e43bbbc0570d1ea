package algebra

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/vector"
)

// JoinTable is the hash index over a build frame's join keys behind every
// JOIN: JoinFrames builds one over its right input, and the key-shuffled
// join builds one per bucket. A keyIndex gives each distinct non-null build
// key a dense id, and flat int32 chains list each key's build rows in build
// order (id → first row, row → next row with the same key), so a build
// allocates O(rows) once and probes emit matches in JoinFrames order. A
// built table is read-only.
type JoinTable struct {
	right    *core.DataFrame
	keys     []vector.Vector
	index    keyIndex
	firstRow []int32 // key id → first build row with this key (the collision-check anchor)
	nextRow  []int32 // build row → next row with the same key, -1 ends
	unique   bool    // every non-null build row is its own key: a probe row matches at most once
}

// BuildJoinTable indexes the build (right) side of a data join on the given
// key columns. Null-keyed build rows are skipped: they can never match.
func BuildJoinTable(right *core.DataFrame, on []string) (*JoinTable, error) {
	keys := make([]vector.Vector, len(on))
	for k, name := range on {
		j := right.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: join key %q missing from build input", name)
		}
		keys[k] = right.TypedCol(j)
	}
	return buildJoinTable(right, keys), nil
}

// buildJoinTable is BuildJoinTable over already-resolved build key vectors
// (columns or row labels).
func buildJoinTable(right *core.DataFrame, keys []vector.Vector) *JoinTable {
	n := right.NRows()
	t := &JoinTable{right: right, keys: keys, nextRow: make([]int32, n)}
	hashes := rowHashes(keys, n)
	var lastRow []int32 // key id → last build row seen with this key
	nonNull := 0
	for i := 0; i < n; i++ {
		t.nextRow[i] = -1
		if anyNullAt(keys, i) {
			continue
		}
		nonNull++
		e, added := t.index.insert(hashes[i], func(e int32) bool { return rowsEqualAt(keys, i, keys, int(t.firstRow[e])) })
		if added {
			t.firstRow = append(t.firstRow, int32(i))
			lastRow = append(lastRow, int32(i))
			continue
		}
		t.nextRow[lastRow[e]] = int32(i)
		lastRow[e] = int32(i)
	}
	t.unique = len(t.firstRow) == nonNull
	return t
}

// Right returns the build frame the table indexes.
func (t *JoinTable) Right() *core.DataFrame { return t.right }

// Probe matches every row of left against the table and appends the
// (leftIdx, rightIdx) pairs in JoinFrames order: left rows in order, each
// followed by its matching build rows in build order; for left and outer
// joins an unmatched probe row emits (i, -1). The unmatched build rows of
// right and outer joins are the caller's to append — JoinFrames does — since
// which build rows matched is a property of the join, not of the table.
func (t *JoinTable) Probe(left *core.DataFrame, on []string, kind expr.JoinKind, leftIdx, rightIdx []int) ([]int, []int, error) {
	keys := make([]vector.Vector, len(on))
	for k, name := range on {
		j := left.ColIndex(name)
		if j < 0 {
			return nil, nil, fmt.Errorf("algebra: join key %q missing from probe input", name)
		}
		keys[k] = left.TypedCol(j)
	}
	leftIdx, rightIdx = t.probe(left.NRows(), keys, kind, leftIdx, rightIdx)
	return leftIdx, rightIdx, nil
}

// probe is Probe over the n rows of already-resolved probe key vectors.
func (t *JoinTable) probe(n int, keys []vector.Vector, kind expr.JoinKind, leftIdx, rightIdx []int) ([]int, []int) {
	keepUnmatched := kind == expr.JoinLeft || kind == expr.JoinOuter
	if t.unique {
		// At most one pair per probe row: size the output once.
		leftIdx, rightIdx = slices.Grow(leftIdx, n), slices.Grow(rightIdx, n)
	}
	hashes := rowHashes(keys, n)
	for i := 0; i < n; i++ {
		e := int32(-1)
		if !anyNullAt(keys, i) {
			e = t.index.find(hashes[i], func(e int32) bool { return rowsEqualAt(keys, i, t.keys, int(t.firstRow[e])) })
		}
		if e < 0 {
			if keepUnmatched {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, -1)
			}
			continue
		}
		for r := t.firstRow[e]; r >= 0; r = t.nextRow[r] {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, int(r))
		}
	}
	return leftIdx, rightIdx
}

// AssembleJoin exposes the join materialization step for physical
// strategies that compute match indices elsewhere: the key-shuffled join
// probes per bucket and assembles each bucket's slice with the same
// suffixing, key-coalescing and label rules as JoinFrames.
func AssembleJoin(left, right *core.DataFrame, on []string, onLabels bool, leftIdx, rightIdx []int) (*core.DataFrame, error) {
	return assembleJoin(left, right, on, onLabels, leftIdx, rightIdx)
}
