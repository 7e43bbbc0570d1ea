package algebra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Group identity is hash-based: every row's key columns are bulk-hashed to
// one 64-bit hash (vector.HashRows, no per-row rendering or boxing), a
// keyIndex maps the hash to the group's dense id, and the index confirms
// every hash match by true key equality against the group's boxed exemplar
// tuple — so two distinct keys that collide on the hash still land in
// distinct groups. The old representation rendered every row's key into a
// string ("a\x1f5\x1f"), which allocated per row and conflated values whose
// renderings agree (a null cell and the literal string "NA"); the hash path
// keeps them distinct because verification uses types.Value.Equal.

// rowHashSeed is the fixed seed of every row-key hash in the kernels. It
// must be one process-wide constant: shuffle summaries hash on partition
// tasks and compare on plan tasks.
const rowHashSeed uint64 = 0x7f4a7c159e3779b9

// rowHashMask narrows row hashes; all-ones in production. Tests shrink it
// to force collisions through the verification paths.
var rowHashMask = ^uint64(0)

// SetRowHashMaskForTesting narrows every row-key hash to the given mask so
// tests can force 64-bit hash collisions through the collision-verification
// paths (group tables, join probes, shuffle routing plans). It returns the
// restore function. Not for production use.
func SetRowHashMaskForTesting(mask uint64) (restore func()) {
	old := rowHashMask
	rowHashMask = mask
	return func() { rowHashMask = old }
}

// rowHashes bulk-hashes the rows of the key columns.
func rowHashes(cols []vector.Vector, n int) []uint64 {
	dst := make([]uint64, n)
	vector.HashRows(cols, rowHashSeed, dst)
	if rowHashMask != ^uint64(0) {
		for i := range dst {
			dst[i] &= rowHashMask
		}
	}
	return dst
}

// RowKeyHashes bulk-hashes df's rows over the named key columns under the
// process-wide row-hash seed (and test mask). Shuffle stages use it to route
// rows: two rows with equal key tuples hash identically on any partition, so
// hash-mod bucket assignment is consistent across bands and across the build
// and probe sides of a key-shuffled join.
func RowKeyHashes(df *core.DataFrame, cols []string) ([]uint64, error) {
	ks := make([]vector.Vector, len(cols))
	for k, name := range cols {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: key column %q missing", name)
		}
		ks[k] = df.TypedCol(j)
	}
	return rowHashes(ks, df.NRows()), nil
}

// hashValues hashes one boxed key tuple under the same seed and mask.
func hashValues(vals []types.Value) uint64 {
	return vector.HashRowValues(vals, rowHashSeed) & rowHashMask
}

// keysMatchRow verifies that row i of the key columns equals the boxed
// exemplar tuple (the collision check behind every bucket probe).
func keysMatchRow(exemplar []types.Value, cols []vector.Vector, i int) bool {
	for k, c := range cols {
		if !vector.EqualRowValue(c, i, exemplar[k]) {
			return false
		}
	}
	return true
}

// tuplesEqual reports whether two boxed key tuples are the same key under
// vector.KeyEqual — the same equivalence the row-level checks verify with,
// so partial merges, the shuffle routing fold and per-row lookups can never
// disagree on group identity.
func tuplesEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !vector.KeyEqual(a[k], b[k]) {
			return false
		}
	}
	return true
}

// groupEntry is the running state for one group.
type groupEntry struct {
	keyVals   []types.Value // exemplar key tuple (verification + finalize)
	accs      []*expr.Accumulator
	collected []*core.DataFrame // sub-frames contributed per partition (collect aggs)
}

// GroupPartial is a mergeable partial GROUPBY aggregation. The MODIN engine
// computes one per partition and merges them; the baseline engine uses a
// single partial over the whole frame. Groups are emitted in first-
// appearance order, preserving the ordered-dataframe semantics.
type GroupPartial struct {
	spec    expr.GroupBySpec
	entries []*groupEntry // by key id: first-appearance order
	index   keyIndex
	hasColl bool
}

// NewGroupPartial returns an empty partial aggregation for the spec.
func NewGroupPartial(spec expr.GroupBySpec) *GroupPartial {
	g := &GroupPartial{spec: spec}
	for _, a := range spec.Aggs {
		if a.Agg == expr.AggCollect {
			g.hasColl = true
		}
	}
	return g
}

// lookup returns the entry index for row i (hash h), creating the group on
// first appearance.
func (g *GroupPartial) lookup(h uint64, keyCols []vector.Vector, i int) int32 {
	ei, added := g.index.insert(h, func(ei int32) bool { return keysMatchRow(g.entries[ei].keyVals, keyCols, i) })
	if !added {
		return ei
	}
	e := &groupEntry{
		keyVals: make([]types.Value, len(keyCols)),
		accs:    make([]*expr.Accumulator, len(g.spec.Aggs)),
	}
	for k, c := range keyCols {
		e.keyVals[k] = c.Value(i)
	}
	for k, a := range g.spec.Aggs {
		e.accs[k] = expr.NewAccumulator(a.Agg)
	}
	g.entries = append(g.entries, e)
	return ei
}

// keyAggCols resolves the typed key and aggregate columns of df.
func (g *GroupPartial) keyAggCols(df *core.DataFrame) (keyCols, aggCols []vector.Vector, err error) {
	keyCols = make([]vector.Vector, len(g.spec.Keys))
	for k, name := range g.spec.Keys {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, nil, fmt.Errorf("algebra: groupby key %q not found", name)
		}
		keyCols[k] = df.TypedCol(j)
	}
	aggCols = make([]vector.Vector, len(g.spec.Aggs))
	for k, a := range g.spec.Aggs {
		if a.Col == "" {
			continue
		}
		j := df.ColIndex(a.Col)
		if j < 0 {
			return nil, nil, fmt.Errorf("algebra: groupby aggregate column %q not found", a.Col)
		}
		aggCols[k] = df.TypedCol(j)
	}
	return keyCols, aggCols, nil
}

// AddFrame folds every row of df into the partial aggregation.
func (g *GroupPartial) AddFrame(df *core.DataFrame) error {
	keyCols, aggCols, err := g.keyAggCols(df)
	if err != nil {
		return err
	}
	n := df.NRows()
	if n == 0 {
		return nil
	}

	// With no grouping keys there is exactly one group, and COUNT/SIZE
	// aggregates read straight off the column length and null count — no
	// per-row accumulation (and no row hashing) at all.
	bulk := g.bulkAggs()
	allBulk := bulk != nil && !g.hasColl
	if bulk != nil {
		for k := range g.spec.Aggs {
			if !bulk[k] {
				allBulk = false
			}
		}
	}

	if !allBulk {
		hashes := rowHashes(keyCols, n)
		// Row positions per group, gathered only when a collect agg needs
		// them.
		var rowsByEntry map[int32][]int
		if g.hasColl {
			rowsByEntry = make(map[int32][]int)
		}
		for i := 0; i < n; i++ {
			ei := g.lookup(hashes[i], keyCols, i)
			e := g.entries[ei]
			for k, a := range g.spec.Aggs {
				if a.Agg == expr.AggCollect || (bulk != nil && bulk[k]) {
					continue
				}
				if aggCols[k] != nil {
					e.accs[k].Add(aggCols[k].Value(i))
				} else {
					// Whole-row aggregates (size) count the row itself.
					e.accs[k].Add(types.IntValue(int64(i)))
				}
			}
			if g.hasColl {
				rowsByEntry[ei] = append(rowsByEntry[ei], i)
			}
		}
		if g.hasColl {
			nonKey := g.nonKeyColumns(df)
			for ei := range g.entries {
				rows, ok := rowsByEntry[int32(ei)]
				if !ok {
					continue
				}
				sub := df.TakeRows(rows)
				if len(nonKey) > 0 {
					sub = sub.SelectCols(nonKey)
				}
				g.entries[ei].collected = append(g.entries[ei].collected, sub)
			}
		}
	} else {
		// Ensure the single group exists even though no row loop runs;
		// hashValues(nil) is the same whole-frame hash rowHashes produces
		// for an empty key list.
		g.lookup(hashValues(nil), keyCols, 0)
	}

	if bulk != nil {
		e := g.entries[len(g.entries)-1]
		if len(g.entries) != 1 {
			return fmt.Errorf("algebra: keyless groupby produced %d groups", len(g.entries))
		}
		for k := range g.spec.Aggs {
			if !bulk[k] {
				continue
			}
			nonNull := int64(n)
			if aggCols[k] != nil {
				nonNull -= int64(vector.NullCount(aggCols[k]))
			}
			e.accs[k].AddCounts(int64(n), nonNull)
		}
	}
	return nil
}

// bulkAggs returns the per-aggregate bulk-eligibility flags for a keyless
// frame fold, or nil when the bulk path does not apply.
func (g *GroupPartial) bulkAggs() []bool {
	if len(g.spec.Keys) != 0 {
		return nil
	}
	bulk := make([]bool, len(g.spec.Aggs))
	any := false
	for k, a := range g.spec.Aggs {
		if a.Agg == expr.AggCount || a.Agg == expr.AggSize {
			bulk[k] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return bulk
}

func (g *GroupPartial) nonKeyColumns(df *core.DataFrame) []int {
	keySet := make(map[string]bool, len(g.spec.Keys))
	for _, k := range g.spec.Keys {
		keySet[k] = true
	}
	var idx []int
	for j := 0; j < df.NCols(); j++ {
		if !keySet[df.ColName(j)] {
			idx = append(idx, j)
		}
	}
	return idx
}

// Merge folds another partial (same spec) into g, preserving g's group
// order first, then appending groups first seen in other.
func (g *GroupPartial) Merge(other *GroupPartial) {
	for oi, oe := range other.entries {
		h := other.index.hashes[oi]
		ei, added := g.index.insert(h, func(ei int32) bool { return tuplesEqual(g.entries[ei].keyVals, oe.keyVals) })
		if added {
			g.entries = append(g.entries, oe)
			continue
		}
		e := g.entries[ei]
		for k := range e.accs {
			e.accs[k].Merge(oe.accs[k])
		}
		e.collected = append(e.collected, oe.collected...)
	}
}

// NumGroups returns the number of distinct groups seen so far.
func (g *GroupPartial) NumGroups() int { return len(g.entries) }

// Finalize materializes the grouped result: key columns (or key row labels
// when AsLabels), then one column per aggregate. Collect aggregates yield
// Composite cells holding each group's sub-dataframe.
func (g *GroupPartial) Finalize() (*core.DataFrame, error) {
	n := len(g.entries)
	keyVals := make([][]types.Value, len(g.spec.Keys))
	for k := range keyVals {
		keyVals[k] = make([]types.Value, 0, n)
	}
	aggVals := make([][]types.Value, len(g.spec.Aggs))
	for k := range aggVals {
		aggVals[k] = make([]types.Value, 0, n)
	}

	for _, e := range g.entries {
		for k := range g.spec.Keys {
			keyVals[k] = append(keyVals[k], e.keyVals[k])
		}
		for k, a := range g.spec.Aggs {
			if a.Agg == expr.AggCollect {
				sub, err := unionAll(e.collected)
				if err != nil {
					return nil, err
				}
				aggVals[k] = append(aggVals[k], types.CompositeValue(sub))
				continue
			}
			aggVals[k] = append(aggVals[k], e.accs[k].Result())
		}
	}

	var cols []vector.Vector
	var labels []types.Value
	if !g.spec.AsLabels {
		for k, name := range g.spec.Keys {
			cols = append(cols, buildColumn(keyVals[k]))
			labels = append(labels, types.String(name))
		}
	}
	for k, a := range g.spec.Aggs {
		if a.Agg == expr.AggCollect {
			cols = append(cols, vector.NewAny(aggVals[k]))
		} else {
			cols = append(cols, buildColumn(aggVals[k]))
		}
		labels = append(labels, types.String(a.OutName()))
	}

	var rowLab vector.Vector
	if g.spec.AsLabels {
		// Implicit TOLABELS: key values become the row labels
		// (composite for multiple keys).
		labs := make([]types.Value, n)
		for i := range labs {
			parts := make([]types.Value, len(g.spec.Keys))
			for k := range g.spec.Keys {
				parts[k] = keyVals[k][i]
			}
			labs[i] = core.CompositeLabel(parts...)
		}
		rowLab = buildColumn(labs)
	}
	return core.Build(cols, rowLab, labels, nil, nil)
}

// GroupByFrame implements GROUPBY over a single frame. When spec.Sorted is
// set the input is assumed ordered by the keys and a streaming pass is used
// instead of hashing — the rewrite opportunity of Figure 8(b).
func GroupByFrame(df *core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
	if spec.Sorted {
		return groupBySorted(df, spec)
	}
	if out, ok, err := DictGroupFrames([]*core.DataFrame{df}, spec); ok || err != nil {
		return out, err
	}
	g := NewGroupPartial(spec)
	if err := g.AddFrame(df); err != nil {
		return nil, err
	}
	return g.Finalize()
}

// groupBySorted performs a streaming group-by over key-sorted input: runs
// of equal keys become groups in one pass, with one hashed entry lookup per
// run instead of per row — the advantage the Figure 8(b) pivot rewrite
// exploits. Non-adjacent duplicate keys (input not actually sorted) still
// merge correctly because run boundaries fall back to the hashed entry
// table.
func groupBySorted(df *core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
	inner := spec
	inner.Sorted = false
	g := NewGroupPartial(inner)
	keyCols, aggCols, err := g.keyAggCols(df)
	if err != nil {
		return nil, err
	}
	n := df.NRows()
	if n == 0 {
		return g.Finalize()
	}
	hashes := rowHashes(keyCols, n)

	sameKey := func(a, b int) bool {
		for _, c := range keyCols {
			if !vector.EqualRows(c, a, c, b) {
				return false
			}
		}
		return true
	}

	var cur *groupEntry
	for i := 0; i < n; i++ {
		if cur == nil || !sameKey(i-1, i) {
			// Run boundary: locate (or create) the group entry. The
			// hashed lookup happens once per run, not once per row.
			cur = g.entries[g.lookup(hashes[i], keyCols, i)]
		}
		for k, a := range spec.Aggs {
			if a.Agg == expr.AggCollect {
				continue
			}
			if aggCols[k] != nil {
				cur.accs[k].Add(aggCols[k].Value(i))
			} else {
				cur.accs[k].Add(types.IntValue(int64(i)))
			}
		}
	}

	if g.hasColl {
		collectRuns(df, g, keyCols, hashes, sameKey)
	}
	return g.Finalize()
}

// collectRuns attaches each run's sub-frame for collect aggregates during a
// streaming group-by.
func collectRuns(df *core.DataFrame, g *GroupPartial, keyCols []vector.Vector, hashes []uint64, sameKey func(a, b int) bool) {
	nonKey := g.nonKeyColumns(df)
	start := 0
	for i := 1; i <= df.NRows(); i++ {
		if i < df.NRows() && sameKey(i-1, i) {
			continue
		}
		e := g.entries[g.lookup(hashes[start], keyCols, start)]
		sub := df.SliceRows(start, i)
		if len(nonKey) > 0 {
			sub = sub.SelectCols(nonKey)
		}
		e.collected = append(e.collected, sub)
		start = i
	}
}

// unionAll concatenates frames in order (used to merge collected groups
// across partitions).
func unionAll(frames []*core.DataFrame) (*core.DataFrame, error) {
	if len(frames) == 0 {
		return core.Empty(), nil
	}
	out := frames[0]
	var err error
	for _, f := range frames[1:] {
		out, err = VStackFrames(out, f)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildColumn picks the narrowest domain covering the values and builds a
// typed vector; mixed domains fall back to Object.
func buildColumn(vals []types.Value) vector.Vector {
	dom := types.Unspecified
	mixed := false
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		d := v.Domain()
		switch {
		case dom == types.Unspecified:
			dom = d
		case dom == d:
		case dom == types.Int && d == types.Float, dom == types.Float && d == types.Int:
			dom = types.Float
		default:
			mixed = true
		}
	}
	if dom == types.Composite {
		return vector.NewAny(vals)
	}
	if mixed || dom == types.Unspecified {
		dom = types.Object
	}
	return vector.FromValues(dom, vals)
}

// GroupKeySummary is the routing form of a frame's group keys, shipped from
// shuffle summarize tasks to the plan task: one small ordinal per row
// (which of the frame's distinct keys the row carries, in first-appearance
// order) plus, per distinct key, its 64-bit hash and a boxed exemplar tuple
// for collision verification. Nothing is rendered to strings.
type GroupKeySummary struct {
	// Ordinals holds, per row, the index of the row's key in Distinct.
	Ordinals []int32
	// Hashes holds the row hash of each distinct key.
	Hashes []uint64
	// Exemplars holds one boxed key tuple per distinct key.
	Exemplars [][]types.Value
}

// SummarizeGroupKeys computes the GroupKeySummary of df over the named key
// columns. Empty keys yield the whole-frame group: every row gets ordinal
// 0. The hashing and verification match GroupPartial exactly, so routing
// and aggregation always agree on group identity.
func SummarizeGroupKeys(df *core.DataFrame, keys []string) (*GroupKeySummary, error) {
	cols := make([]vector.Vector, len(keys))
	for k, name := range keys {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: groupby key %q not found", name)
		}
		cols[k] = df.TypedCol(j)
	}
	n := df.NRows()
	s := &GroupKeySummary{Ordinals: make([]int32, n)}
	hashes := rowHashes(cols, n)
	var index keyIndex
	for i := 0; i < n; i++ {
		ord, added := index.insert(hashes[i], func(d int32) bool { return keysMatchRow(s.Exemplars[d], cols, i) })
		if added {
			exemplar := make([]types.Value, len(cols))
			for k, c := range cols {
				exemplar[k] = c.Value(i)
			}
			s.Exemplars = append(s.Exemplars, exemplar)
		}
		s.Ordinals[i] = ord
	}
	s.Hashes = index.hashes
	return s, nil
}

// GroupKeyFold is the prefix-foldable global form of band key summaries:
// feed it each band's distinct-key stats IN BAND ORDER and it assigns every
// key a global id equal to its first-appearance rank under the single-node
// scan order — the invariant that lets a hash-routed shuffle repair global
// group order after the fact. The state after k bands depends only on bands
// [0, k), so the fold can run incrementally as summaries land rather than
// barriering on all of them; hash collisions between distinct keys are
// broken by exemplar verification under tuplesEqual, the same equivalence
// the per-row summaries use.
type GroupKeyFold struct {
	// Exemplars, Hashes and Counts are indexed by global id (= global
	// first-appearance rank); Counts accumulates each key's total row
	// volume and Total the fold's overall row count. Hashes is the key
	// index's own id → hash slice.
	Exemplars [][]types.Value
	Hashes    []uint64
	Counts    []int64
	Total     int64

	index keyIndex
}

// NewGroupKeyFold returns an empty fold.
func NewGroupKeyFold() *GroupKeyFold { return &GroupKeyFold{} }

// AddBand folds one band's distinct-key stats (hash, exemplar and row count
// per key, in the band's first-appearance order). Bands must arrive in band
// order for global ids to equal global first-appearance ranks.
func (f *GroupKeyFold) AddBand(hashes []uint64, exemplars [][]types.Value, counts []int64) {
	for d, h := range hashes {
		gid, added := f.index.insert(h, func(g int32) bool { return tuplesEqual(f.Exemplars[g], exemplars[d]) })
		if added {
			f.Exemplars = append(f.Exemplars, exemplars[d])
			f.Counts = append(f.Counts, 0)
		}
		f.Counts[gid] += counts[d]
		f.Total += counts[d]
	}
	f.Hashes = f.index.hashes
}
