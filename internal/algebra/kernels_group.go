package algebra

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Group identity is key identity, resolved by the key-id resolver (keyRows,
// keyindex.go) in one of three representations picked once per frame: a
// single Dict column by code (each code once, by its value's hash, so
// frames whose category tables differ agree on every group), an exact key
// whose row hash is the key, or row hashes verified by typed equality. No
// key is rendered or boxed per row, and keys that collide on the hash land
// in distinct groups. A key the resolving frame added is anchored at the
// frame's row that first carried it; once the frame is folded, its keys
// live on in a typed key chunk, one Take of its key columns.

// rowHashSeed is the fixed seed of every row-key hash in the kernels. It
// must be one process-wide constant: a shuffle routes rows by hash on one
// task (or worker) and a bucket merge groups them by hash on another.
const rowHashSeed uint64 = 0x7f4a7c159e3779b9

// rowHashMask narrows row hashes; all-ones in production. Tests shrink it
// to force collisions through the verification paths.
var rowHashMask = ^uint64(0)

// SetRowHashMaskForTesting narrows every row-key hash to the given mask so
// tests can force 64-bit hash collisions through the collision-verification
// paths (group tables, join probes, shuffle routing). It returns the
// restore function. Not for production use.
func SetRowHashMaskForTesting(mask uint64) (restore func()) {
	old := rowHashMask
	rowHashMask = mask
	return func() { rowHashMask = old }
}

// rowHashes is the row hashes of key columns, read by row (at) and made
// one chunk of rows at a time into one reused buffer: a keyed kernel holds a
// chunk's hashes, not one per input row. A chunk is groupChunk rows, or the
// longest category table a key column reads when that is longer, since
// hashing a Dict's rows hashes its whole table (vector.DictTableLen); a
// chunked key is hashed piece by piece, never flattened for it. Reading a
// row outside the buffered chunk hashes its chunk, so rows read in order
// are hashed once each.
type rowHashes struct {
	cols  []vector.Vector
	n     int
	chunk int
	lo    int      // buf holds the hashes of rows [lo, lo+len(buf))
	buf   []uint64 // the chunk's hashes
	tmp   []uint64 // a composite key's scratch (vector.HashRowsRange)
}

// newRowHashes prepares the row hashes of the n-row key columns cols. With
// no column every row is the one key, whose hash is read a row at a time.
func newRowHashes(cols []vector.Vector, n int) *rowHashes {
	chunk := groupChunk
	if len(cols) == 0 {
		chunk = 1
	}
	for _, c := range cols {
		chunk = max(chunk, vector.DictTableLen(c))
	}
	chunk = max(min(chunk, n), 1)
	h := &rowHashes{cols: cols, n: n, chunk: chunk, buf: make([]uint64, 0, chunk)}
	if len(cols) > 1 {
		h.tmp = make([]uint64, chunk)
	}
	return h
}

// at returns row i's hash.
func (h *rowHashes) at(i int) uint64 {
	if uint(i-h.lo) >= uint(len(h.buf)) {
		h.fill(i)
	}
	return h.buf[i-h.lo]
}

// fill hashes the chunk of rows that holds row i and returns its hashes,
// valid until the next fill.
func (h *rowHashes) fill(i int) []uint64 {
	lo := i - i%h.chunk
	h.lo, h.buf = lo, h.buf[:min(h.chunk, h.n-lo)]
	hashRowsInto(h.cols, lo, h.buf, h.tmp)
	return h.buf
}

// hashRowsInto writes the hashes of rows [lo, lo+len(dst)) of the key
// columns, under the process-wide seed and the test mask, into dst, reading
// the columns in place; tmp is a composite key's scratch (nil: made when
// needed).
func hashRowsInto(cols []vector.Vector, lo int, dst, tmp []uint64) {
	vector.HashRowsRange(cols, rowHashSeed, lo, dst, tmp)
	if rowHashMask != ^uint64(0) {
		for i := range dst {
			dst[i] &= rowHashMask
		}
	}
}

// RowKeyHashes bulk-hashes df's rows over the named key columns under the
// process-wide row-hash seed (and test mask): the hash HashRoute routes by.
// The engine never calls it; it survives for paperbench's replay, whose
// join routing times a whole-band hash pass.
func RowKeyHashes(df *core.DataFrame, cols []string) ([]uint64, error) {
	ks := make([]vector.Vector, len(cols))
	for k, name := range cols {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: key column %q missing", name)
		}
		ks[k] = df.TypedCol(j)
	}
	dst := make([]uint64, df.NRows())
	hashRowsInto(ks, 0, dst, nil)
	return dst, nil
}

// hashValues hashes one boxed key tuple under the same seed and mask.
func hashValues(vals []types.Value) uint64 {
	return vector.HashRowValues(vals, rowHashSeed) & rowHashMask
}

// tuplesEqual reports whether two boxed key tuples are the same key under
// vector.KeyEqual, the equivalence vector.EqualRows verifies typed rows
// with. Only the replay's GroupKeyFold compares boxed tuples; ROADMAP item
// 3's benchmark follow-up deletes it.
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

// keyTable gives every distinct group key a dense id in first-appearance
// order through the key-id resolver, and keeps the keys: while a frame
// resolves, a key it added is its first row there (rows); once the frame is
// kept, the keys it added are one typed chunk, so the table pins no frame or
// view it was handed. GroupPartial and the replay's key summaries assign
// group identity through it.
type keyTable struct {
	index  keyIndex
	rows   []int32    // by id: the row that inserted the key, -1 for a key Merge added
	chunks []keyChunk // the kept frames' keys, in id order
}

// keyChunk holds the keys of ids lo, lo+1, … as rows 0, 1, … of typed key
// columns, one Take of the frame that added them.
type keyChunk struct {
	lo   int32
	cols []vector.Vector
}

// chunkOf returns the kept chunk holding id.
func (t *keyTable) chunkOf(id int32) *keyChunk {
	lo, hi := 0, len(t.chunks) // the chunk is the last one starting at or before id
	for hi-lo > 1 {
		if m := (lo + hi) / 2; t.chunks[m].lo <= id {
			lo = m
		} else {
			hi = m
		}
	}
	return &t.chunks[lo]
}

// keep ends fk's resolution: one Take per key column copies the rows that
// added keys into a typed chunk, and the table lets go of the frame.
func (t *keyTable) keep(fk *keyRows) {
	n := int32(len(t.rows))
	if n == fk.fresh {
		return
	}
	first := make([]int, n-fk.fresh)
	for r := range first {
		first[r] = int(t.rows[fk.fresh+int32(r)])
	}
	c := keyChunk{lo: fk.fresh, cols: make([]vector.Vector, len(fk.cols))}
	for k, col := range fk.cols {
		c.cols[k] = col.Take(first)
	}
	t.chunks = append(t.chunks, c)
}

// merge resolves every key of o, chunk by chunk as if each were a frame,
// and returns each o id's id here. The keys it adds have no row.
func (t *keyTable) merge(o *keyTable) []int32 {
	to := make([]int32, len(o.rows))
	added := len(t.rows)
	for c, chunk := range o.chunks {
		hi := int32(len(o.rows))
		if c+1 < len(o.chunks) {
			hi = o.chunks[c+1].lo
		}
		fk := t.frame(chunk.cols, int(hi-chunk.lo))
		fk.ids(0, to[chunk.lo:hi])
		t.keep(&fk)
	}
	for id := added; id < len(t.rows); id++ {
		t.rows[id] = -1
	}
	return to
}

// key boxes key id's tuple from its chunk.
func (t *keyTable) key(id int) []types.Value {
	c := t.chunkOf(int32(id))
	key := make([]types.Value, len(c.cols))
	for k, col := range c.cols {
		key[k] = col.Value(id - int(c.lo))
	}
	return key
}

// column is key column k over every id, typed as buildColumn types the
// keys' values: the chunks joined when they share one typed storage (one
// domain other than Composite) and hold a non-null key, else built from the
// boxed keys (Int and Float chunks meet as Float, null keys alone are
// Object).
func (t *keyTable) column(k int) vector.Vector {
	parts := make([]vector.Vector, len(t.chunks))
	valued, typed := false, true
	for c := range t.chunks {
		parts[c] = t.chunks[c].cols[k]
		valued = valued || vector.NullCount(parts[c]) < parts[c].Len()
		typed = typed && parts[c].Domain() == parts[0].Domain() && parts[c].Domain() != types.Composite
	}
	if valued && typed {
		if len(parts) == 1 {
			return parts[0]
		}
		return vector.Concat(parts...)
	}
	vals := make([]types.Value, 0, len(t.rows))
	for _, p := range parts {
		for r := 0; r < p.Len(); r++ {
			vals = append(vals, p.Value(r))
		}
	}
	return buildColumn(vals)
}

// frame binds a frame's n-row key columns to the table, anchoring earlier
// keys in their chunks.
func (t *keyTable) frame(cols []vector.Vector, n int) keyRows {
	return t.index.bind(cols, n, &t.rows, func(id int32) ([]vector.Vector, int) {
		c := t.chunkOf(id)
		return c.cols, int(id - c.lo)
	})
}

// groupKeyCols resolves the typed key columns of df.
func groupKeyCols(df *core.DataFrame, keys []string) ([]vector.Vector, error) {
	cols := make([]vector.Vector, len(keys))
	for k, name := range keys {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: groupby key %q not found", name)
		}
		cols[k] = df.TypedCol(j)
	}
	return cols, nil
}

// groupChunk is how many rows AddFrame resolves to group ids at a time, so
// its id buffer stays small however long the frame.
const groupChunk = 1024

// GroupPartial is a mergeable partial GROUPBY aggregation. The MODIN engine
// computes one per partition and merges them; the baseline engine uses a
// single partial over the whole frame. Groups are emitted in first-
// appearance order, preserving the ordered-dataframe semantics.
type GroupPartial struct {
	spec      expr.GroupBySpec
	keys      keyTable
	aggs      []aggState          // by aggregate
	collect   bool                // some aggregate is COLLECT
	collected [][]*core.DataFrame // by group: sub-frames contributed per partition
}

// NewGroupPartial returns an empty partial aggregation for the spec.
func NewGroupPartial(spec expr.GroupBySpec) *GroupPartial {
	g := &GroupPartial{spec: spec, aggs: make([]aggState, len(spec.Aggs)), collect: collects(spec)}
	for k, a := range spec.Aggs {
		g.aggs[k].kind = a.Agg
	}
	return g
}

// grow extends every per-group state to the key table's groups.
func (g *GroupPartial) grow() {
	n := g.NumGroups()
	for k := range g.aggs {
		g.aggs[k].grow(n)
	}
	if g.collect {
		g.collected = extend(g.collected, n)
	}
}

// AddFrame folds every row of df into the partial aggregation.
func (g *GroupPartial) AddFrame(df *core.DataFrame) error {
	keyCols, err := groupKeyCols(df, g.spec.Keys)
	if err != nil {
		return err
	}
	aggCols := make([]vector.Vector, len(g.spec.Aggs))
	for k, a := range g.spec.Aggs {
		if a.Col == "" {
			continue
		}
		j := df.ColIndex(a.Col)
		if j < 0 {
			return fmt.Errorf("algebra: groupby aggregate column %q not found", a.Col)
		}
		aggCols[k] = df.TypedCol(j)
	}
	n := df.NRows()
	if n == 0 {
		return nil
	}
	fk := g.keys.frame(keyCols, n)
	fk.runs = fk.runs || g.spec.Sorted
	defer g.keys.keep(&fk)

	// With no grouping keys there is exactly one group, and COUNT/SIZE read
	// straight off the column length and null count; visit lists the
	// aggregates that read rows.
	if len(keyCols) == 0 {
		var id [1]int32
		fk.ids(0, id[:])
		g.grow()
	}
	var visit []int
	for k, a := range g.spec.Aggs {
		counting := a.Agg == expr.AggCount || a.Agg == expr.AggSize
		switch {
		case a.Agg == expr.AggCollect:
		case counting && len(keyCols) == 0:
			nonNull := n
			if a.Agg == expr.AggCount && aggCols[k] != nil {
				nonNull -= vector.NullCount(aggCols[k])
			}
			g.aggs[k].count[0] += int64(nonNull)
		default:
			if aggCols[k] == nil && !counting {
				aggCols[k] = vector.Range(0, n) // whole-row aggregates read the row ordinal
			}
			visit = append(visit, k)
		}
	}
	if len(keyCols) == 0 && len(visit) == 0 && !g.collect {
		return nil
	}

	var members [][]int // by group: this frame's rows, for collect aggregates
	fk.each(func(lo int, ids []int32) {
		g.grow()
		for _, k := range visit {
			g.aggs[k].add(ids, aggCols[k], lo)
		}
		if g.collect {
			for len(members) < g.NumGroups() {
				members = append(members, nil)
			}
			for r, id := range ids {
				members[id] = append(members[id], lo+r)
			}
		}
	})
	if g.collect {
		nonKey := g.nonKeyColumns(df)
		for id, rows := range members {
			if rows == nil {
				continue
			}
			sub := df.TakeRows(rows)
			if len(nonKey) > 0 {
				sub = sub.SelectCols(nonKey)
			}
			g.collected[id] = append(g.collected[id], sub)
		}
	}
	return nil
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
	to := g.keys.merge(&other.keys)
	g.grow()
	for k := range g.aggs {
		for oi, id := range to {
			g.aggs[k].merge(id, &other.aggs[k], oi)
		}
	}
	if g.collect {
		for oi, id := range to {
			g.collected[id] = append(g.collected[id], other.collected[oi]...)
		}
	}
}

// NumGroups returns the number of distinct groups seen so far.
func (g *GroupPartial) NumGroups() int { return len(g.keys.rows) }

// FirstRow returns the row that inserted group id, a row of the frame
// whose AddFrame or AddState call added the group, or -1 for a group Merge
// added. A shuffle's bucket merge reads that row's label: its position.
func (g *GroupPartial) FirstRow(id int) int { return int(g.keys.rows[id]) }

// Finalize materializes the grouped result: key columns (or key row labels
// when AsLabels), then one column per aggregate. Collect aggregates yield
// Composite cells holding each group's sub-dataframe.
func (g *GroupPartial) Finalize() (*core.DataFrame, error) {
	n := g.NumGroups()
	var cols []vector.Vector
	var labels []types.Value
	if !g.spec.AsLabels {
		for k, name := range g.spec.Keys {
			cols = append(cols, g.keys.column(k))
			labels = append(labels, types.String(name))
		}
	}
	for k, a := range g.spec.Aggs {
		if a.Agg != expr.AggCollect {
			cols = append(cols, g.aggs[k].column(n))
		} else {
			vals := make([]types.Value, n)
			for id := range vals {
				sub, err := unionAll(g.collected[id])
				if err != nil {
					return nil, err
				}
				vals[id] = types.CompositeValue(sub)
			}
			cols = append(cols, vector.NewAny(vals))
		}
		labels = append(labels, types.String(a.OutName()))
	}

	var rowLab vector.Vector
	switch {
	case !g.spec.AsLabels:
	case len(g.spec.Keys) == 1:
		rowLab = g.keys.column(0)
	default:
		// Implicit TOLABELS: key values become the row labels (composite
		// for several keys).
		labs := make([]types.Value, n)
		for id := range labs {
			labs[id] = core.CompositeLabel(g.keys.key(id)...)
		}
		rowLab = buildColumn(labs)
	}
	return core.Build(cols, rowLab, labels, nil, nil)
}

// GroupByFrame implements GROUPBY over a single frame. When spec.Sorted is
// set the input is assumed ordered by the keys: a row equal to its
// predecessor joins its group without a hash probe, so the lookup happens
// once per run of equal keys — the rewrite opportunity of Figure 8(b).
// Non-adjacent duplicate keys (input not actually sorted) still merge
// correctly because run boundaries fall back to the hashed lookup.
func GroupByFrame(df *core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
	g := NewGroupPartial(spec)
	if err := g.AddFrame(df); err != nil {
		return nil, err
	}
	return g.Finalize()
}

// ExactCombine reports whether a GROUPBY's band partials combine into the
// very cells one row-by-row fold produces: every aggregate is COUNT or
// SIZE (integer counts add) or a column's MIN or MAX (the first extreme
// wins in either order of folding). SUM and MEAN do not: adding band sums
// reassociates a float sum. COLLECT and the accumulator kinds keep states
// that are not columns. Only these specs have state frames.
func ExactCombine(spec expr.GroupBySpec) bool {
	if len(spec.Aggs) == 0 {
		return false
	}
	for _, a := range spec.Aggs {
		switch a.Agg {
		case expr.AggCount, expr.AggSize:
		case expr.AggMin, expr.AggMax:
			if a.Col == "" {
				return false // a whole-row extreme reads frame-local row ordinals
			}
		default:
			return false
		}
	}
	return true
}

// GroupStateCol labels every aggregate column of a state frame, so a merge
// tells the states a band routed from the rows a band routed; the state
// columns are read positionally, so a user column of that name is harmless.
const GroupStateCol = "__group_state__"

// StateFrames cuts a partial that one AddFrame built over df, band `band`
// of a shuffle's input, into one state frame per hash bucket, routing each
// group as its rows would route: bucket = key hash % buckets. A state frame
// holds one row per group, in first-appearance order: the key columns taken
// at the group's first row of df, so they keep df's storage exactly, then
// one GroupStateCol column per aggregate — COUNT and SIZE as Int counts,
// MIN and MAX as the extreme in the input column's domain, null where the
// group had no value. Its row labels are the positions of those first rows,
// band<<32 | row, as RouteGroupRows labels routed rows. AddState folds them
// back; only ExactCombine specs have them.
func (g *GroupPartial) StateFrames(df *core.DataFrame, band, buckets int) ([]*core.DataFrame, error) {
	n := g.NumGroups()
	if !ExactCombine(g.spec) || slices.Contains(g.keys.rows, -1) {
		return nil, fmt.Errorf("algebra: groupby has no state frames")
	}
	// Order the groups by bucket, stably, so one take per column serves
	// every bucket and each bucket's states are a slice of it.
	hashes := g.keys.index.hashes
	ends := make([]int, buckets)
	for _, h := range hashes {
		ends[h%uint64(buckets)]++
	}
	for b := 1; b < buckets; b++ {
		ends[b] += ends[b-1]
	}
	perm := make([]int, n)
	for id := n - 1; id >= 0; id-- {
		b := hashes[id] % uint64(buckets)
		ends[b]--
		perm[ends[b]] = id
	}
	nk, na := len(g.spec.Keys), len(g.spec.Aggs)
	cols, labels, domains := make([]vector.Vector, 0, nk+na), make([]types.Value, 0, nk+na), make([]types.Domain, 0, nk+na)
	add := func(c vector.Vector, label string) {
		cols, labels, domains = append(cols, c), append(labels, types.String(label)), append(domains, c.Domain())
	}
	keyCols, err := groupKeyCols(df, g.spec.Keys)
	if err != nil {
		return nil, err
	}
	first, pos := make([]int, n), make([]int64, n)
	for i, id := range perm {
		first[i] = int(g.keys.rows[id])
		pos[i] = int64(band)<<32 | int64(first[i])
	}
	for k, c := range keyCols {
		add(c.Take(first), g.spec.Keys[k])
	}
	for k, a := range g.spec.Aggs {
		s := &g.aggs[k]
		if a.Agg == expr.AggCount || a.Agg == expr.AggSize {
			counts := make([]int64, n)
			for i, id := range perm {
				counts[i] = s.count[id]
			}
			add(vector.NewInt(counts, nil), GroupStateCol)
			continue
		}
		j := df.ColIndex(a.Col)
		if j < 0 {
			return nil, fmt.Errorf("algebra: groupby aggregate column %q not found", a.Col)
		}
		vals := make([]types.Value, n)
		for i, id := range perm {
			vals[i] = s.result(id)
		}
		add(vector.FromValues(df.TypedCol(j).Domain(), vals), GroupStateCol)
	}
	all, err := core.Build(cols, vector.NewInt(pos, nil), labels, domains, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*core.DataFrame, buckets)
	for b := range out {
		hi := n
		if b+1 < buckets {
			hi = ends[b+1]
		}
		out[b] = all.SliceRows(ends[b], hi)
	}
	return out, nil
}

// IsGroupState reports whether df is one of spec's state frames: its key
// columns, then one GroupStateCol column per aggregate.
func IsGroupState(df *core.DataFrame, spec expr.GroupBySpec) bool {
	nk := len(spec.Keys)
	if !ExactCombine(spec) || df.NCols() != nk+len(spec.Aggs) {
		return false
	}
	for j := nk; j < df.NCols(); j++ {
		if df.ColName(j) != GroupStateCol {
			return false
		}
	}
	return true
}

// AddState folds one state frame (StateFrames) into the partial as Merge
// folds the partial it was cut from: a key new to g joins after g's groups,
// counts add, and an extreme replaces g's only when strictly beyond it. So
// folding the bands' states in band order gives the cells, group order
// included, of folding the bands' rows in band order.
func (g *GroupPartial) AddState(df *core.DataFrame) error {
	if !IsGroupState(df, g.spec) {
		return fmt.Errorf("algebra: frame is not a groupby state frame")
	}
	n, nk := df.NRows(), len(g.spec.Keys)
	if n == 0 {
		return nil
	}
	keyCols := make([]vector.Vector, nk)
	for k := range keyCols {
		keyCols[k] = df.TypedCol(k)
	}
	ids := make([]int32, n)
	fk := g.keys.frame(keyCols, n)
	fk.ids(0, ids)
	g.keys.keep(&fk)
	g.grow()
	for k := range g.aggs {
		g.aggs[k].addState(ids, df.TypedCol(nk+k))
	}
	return nil
}

// GroupLabelCol carries a routed row's own row label when the spec has a
// COLLECT aggregate, whose sub-frames keep the input's labels: routing
// relabels rows with their positions. It is always the last column, read
// and dropped positionally, so a user column of that name is harmless.
const GroupLabelCol = "__group_label__"

// collects reports whether some aggregate of the spec is COLLECT.
func collects(spec expr.GroupBySpec) bool {
	return slices.ContainsFunc(spec.Aggs, func(a expr.AggSpec) bool { return a.Agg == expr.AggCollect })
}

// RouteGroupRows is the partition phase of a GROUPBY shuffle that routes
// rows: it cuts df, band `band` of the shuffle's input, into one piece per
// hash bucket as HashRoute assigns them, the bucket StateFrames routes the
// key's state to. Each piece holds its rows in band-row order as zero-copy
// views, labelled with their band positions — a view, through the same
// take index, over the band's position sequence band<<32 + row (vector.
// Range) — from which the merge reads each group's first position; a spec
// with a COLLECT aggregate also carries df's own labels as a trailing
// GroupLabelCol column (RoutedRows restores them). The key and aggregate
// columns leave typed, so no merge, spill or wire parses them again.
func RouteGroupRows(df *core.DataFrame, spec expr.GroupBySpec, band, buckets int) ([]*core.DataFrame, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("algebra: groupby routes into %d buckets", buckets)
	}
	keyCols, err := groupKeyCols(df, spec.Keys)
	if err != nil {
		return nil, err
	}
	for _, a := range spec.Aggs {
		if j := df.ColIndex(a.Col); a.Col != "" && j >= 0 {
			df.TypedCol(j)
		}
	}
	df = df.Resolved()
	n := df.NRows()
	positions := vector.Range(int64(band)<<32, n)
	if buckets == 1 {
		piece, err := routedPiece(df, spec, nil, positions)
		return []*core.DataFrame{piece}, err
	}
	rows := HashRoute(keyCols, n, buckets)
	out := make([]*core.DataFrame, buckets)
	for b := range out {
		if out[b], err = routedPiece(df, spec, rows[b], vector.TakeView(positions, rows[b])); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// HashRoute is the one hash router of every key shuffle: the groupby's
// routed rows and states (a join routes nothing). It sends row i of the n-row
// key columns to bucket (key hash of row i) % buckets — RowKeyHashes' hash —
// and lays out each bucket's take index, in band-row order. Callers resolve
// their own key columns, so each keeps its own error text.
//
// Nothing per row outlives the call but the indexes: a single Dict key is
// read by the key-id resolver's code reader (dictCodes) and hashed once per
// code, any other key a chunk of rows at a time (rowHashes), and each row's
// bucket is one byte when there are at most 256 buckets.
func HashRoute(keys []vector.Vector, n, buckets int) (rows [][]int) {
	if buckets <= 256 {
		return hashRoute[uint8](keys, n, buckets)
	}
	return hashRoute[int32](keys, n, buckets)
}

// hashRoute is HashRoute with each row's bucket held as a B.
func hashRoute[B uint8 | int32](keys []vector.Vector, n, buckets int) (rows [][]int) {
	into := make([]B, n) // row → bucket
	counts := make([]int, buckets)
	nb := uint64(buckets)
	if d, ok := dictKey(keys); ok {
		bucket := slices.Repeat([]int32{unseen}, int(d.null)+1)
		for i := range into {
			c := d.code(i)
			if bucket[c] == unseen {
				bucket[c] = int32(hashValues([]types.Value{keys[0].Value(i)}) % nb)
			}
			into[i] = B(bucket[c])
			counts[into[i]]++
		}
	} else {
		h := newRowHashes(keys, n)
		for lo := 0; lo < n; lo += h.chunk {
			for r, x := range h.fill(lo) {
				into[lo+r] = B(x % nb)
				counts[into[lo+r]]++
			}
		}
	}

	rows = make([][]int, buckets)
	backing := make([]int, n)
	for b, c := range counts {
		rows[b], backing = backing[:0:c], backing[c:]
	}
	for i, b := range into {
		rows[b] = append(rows[b], i)
	}
	return rows
}

// routedPiece is the view of df's rows (all of them when rows is nil)
// labelled with their positions, plus the GroupLabelCol column when the spec
// collects.
func routedPiece(df *core.DataFrame, spec expr.GroupBySpec, rows []int, positions vector.Vector) (*core.DataFrame, error) {
	take := func(v vector.Vector) vector.Vector {
		if rows == nil {
			return v
		}
		return vector.TakeView(v, rows)
	}
	nc := df.NCols()
	cols, labels, domains := make([]vector.Vector, nc, nc+1), df.ColLabels(), df.Domains() // Domains copies
	for j := range cols {
		cols[j] = take(df.Col(j))
	}
	if collects(spec) {
		own := df.RowLabels()
		cols = append(cols, take(own))
		labels = append(labels[:nc:nc], types.String(GroupLabelCol))
		domains = append(domains, own.Domain())
	}
	return core.Build(cols, positions, labels, domains, df.Cache())
}

// RoutedRows splits a piece RouteGroupRows cut into the rows a GroupPartial
// folds, with the input's own labels back when the spec collects, and the
// rows' positions.
func RoutedRows(piece *core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, vector.Vector, error) {
	positions := piece.RowLabels()
	if !collects(spec) {
		return piece, positions, nil
	}
	j := piece.NCols() - 1
	if j < 0 || piece.ColName(j) != GroupLabelCol {
		return nil, nil, fmt.Errorf("algebra: routed groupby piece has no %s column", GroupLabelCol)
	}
	rows, err := piece.DropColumn(j).WithRowLabels(piece.Col(j))
	return rows, positions, err
}

// aggState is one aggregate's running state over every group, in flat
// slices indexed by group id. COUNT, SIZE, SUM, MEAN, MIN and MAX read Int
// and Float storage directly (other storage through boxed cells) and
// reproduce expr.Accumulator's Add, Merge and Result exactly; every other
// kind keeps one Accumulator per group. COLLECT keeps only the group count
// here: GroupPartial.collected holds its sub-frames.
type aggState struct {
	kind  expr.AggKind
	count []int64       // SIZE: rows; other typed kinds: non-null values. Its length is the group count.
	sum   []float64     // SUM, MEAN
	ext   []types.Value // MIN, MAX: the extreme so far
	accs  []*expr.Accumulator
}

// typed reports whether the kind keeps flat state.
func (s *aggState) typed() bool {
	switch s.kind {
	case expr.AggCount, expr.AggSize, expr.AggSum, expr.AggMean, expr.AggMin, expr.AggMax:
		return true
	}
	return false
}

// grow extends the state to n groups.
func (s *aggState) grow(n int) {
	old := len(s.count)
	if n <= old {
		return
	}
	s.count = extend(s.count, n)
	switch s.kind {
	case expr.AggSum, expr.AggMean:
		s.sum = extend(s.sum, n)
	case expr.AggMin, expr.AggMax:
		s.ext = extend(s.ext, n)
	case expr.AggCount, expr.AggSize, expr.AggCollect:
	default:
		s.accs = extend(s.accs, n)
		for g := old; g < n; g++ {
			s.accs[g] = expr.NewAccumulator(s.kind)
		}
	}
}

// add folds rows [lo, lo+len(ids)) of col into the groups ids names. A nil
// col is the whole row, which only COUNT and SIZE read.
func (s *aggState) add(ids []int32, col vector.Vector, lo int) {
	switch {
	case s.kind == expr.AggSize || col == nil:
		for _, g := range ids {
			s.count[g]++
		}
	case !s.typed():
		for r, g := range ids {
			s.accs[g].Add(col.Value(lo + r))
		}
	default:
		if data, nulls, idx, ok := vector.IntData(col); ok {
			addTyped(s, ids, lo, data, nulls, idx, types.IntValue)
		} else if data, nulls, idx, ok := vector.FloatData(col); ok {
			addTyped(s, ids, lo, data, nulls, idx, types.FloatValue)
		} else {
			for r, g := range ids {
				s.addValue(g, col.Value(lo+r))
			}
		}
	}
}

// addTyped is add over Int or Float storage: null, NaN and view-padding
// cells are skipped, and only MIN/MAX box the values they compare.
func addTyped[T int64 | float64](s *aggState, ids []int32, lo int, data []T, nulls []bool, idx []int, box func(T) types.Value) {
	for r, g := range ids {
		j := lo + r
		if idx != nil {
			if j = idx[j]; j < 0 {
				continue
			}
		}
		x := data[j]
		if (nulls != nil && nulls[j]) || x != x {
			continue
		}
		switch s.kind {
		case expr.AggMin, expr.AggMax:
			s.addValue(g, box(x))
		case expr.AggSum, expr.AggMean:
			s.sum[g] += float64(x)
			s.count[g]++
		default:
			s.count[g]++
		}
	}
}

// addValue folds one boxed cell into group g, as Accumulator.Add does.
func (s *aggState) addValue(g int32, v types.Value) {
	if v.IsNull() {
		return
	}
	first := s.count[g] == 0
	s.count[g]++
	switch s.kind {
	case expr.AggSum, expr.AggMean:
		s.sum[g] += v.Float()
	case expr.AggMin:
		if first || v.Less(s.ext[g]) {
			s.ext[g] = v
		}
	case expr.AggMax:
		if first || s.ext[g].Less(v) {
			s.ext[g] = v
		}
	}
}

// merge folds group o of other into group g, as Accumulator.Merge does.
func (s *aggState) merge(g int32, other *aggState, o int) {
	switch {
	case s.kind == expr.AggCollect:
		return
	case !s.typed():
		s.accs[g].Merge(other.accs[o])
		return
	}
	c := other.count[o]
	if c == 0 {
		return
	}
	first := s.count[g] == 0
	s.count[g] += c
	switch s.kind {
	case expr.AggSum, expr.AggMean:
		s.sum[g] += other.sum[o]
	case expr.AggMin:
		if first || other.ext[o].Less(s.ext[g]) {
			s.ext[g] = other.ext[o]
		}
	case expr.AggMax:
		if first || s.ext[g].Less(other.ext[o]) {
			s.ext[g] = other.ext[o]
		}
	}
}

// addState folds a state column (StateFrames) into the groups ids names:
// a count adds, an extreme folds like one cell, a null extreme is no value.
func (s *aggState) addState(ids []int32, col vector.Vector) {
	for r, g := range ids {
		if s.kind == expr.AggCount || s.kind == expr.AggSize {
			s.count[g] += col.Value(r).Int()
		} else {
			s.addValue(g, col.Value(r))
		}
	}
}

// result is group g's aggregate, as Accumulator.Result computes it.
func (s *aggState) result(g int) types.Value {
	switch s.kind {
	case expr.AggCount, expr.AggSize:
		return types.IntValue(s.count[g])
	case expr.AggSum:
		return types.FloatValue(s.sum[g])
	case expr.AggMean:
		if s.count[g] == 0 {
			return types.NullValue(types.Float)
		}
		return types.FloatValue(s.sum[g] / float64(s.count[g]))
	case expr.AggMin, expr.AggMax:
		if s.count[g] == 0 {
			return types.Null()
		}
		return s.ext[g]
	}
	return s.accs[g].Result()
}

// column is the aggregate's result over groups [0, n), typed as buildColumn
// types the results: COUNT and SIZE as one Int vector, SUM and MEAN as one
// Float vector, straight from the flat state. An empty MEAN is 0/0, a NaN,
// which a Float reads as null. A column with no non-null result, and every
// other kind, is built from the boxed results.
func (s *aggState) column(n int) vector.Vector {
	var col vector.Vector
	switch s.kind {
	case expr.AggCount, expr.AggSize:
		col = vector.NewInt(slices.Clone(s.count[:n]), nil)
	case expr.AggSum:
		col = vector.NewFloat(slices.Clone(s.sum[:n]), nil)
	case expr.AggMean:
		mean := make([]float64, n)
		for g := range mean {
			mean[g] = s.sum[g] / float64(s.count[g])
		}
		col = vector.NewFloat(mean, nil)
	}
	if col != nil && vector.NullCount(col) < n {
		return col
	}
	vals := make([]types.Value, n)
	for g := range vals {
		vals[g] = s.result(g)
	}
	return buildColumn(vals)
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

// GroupKeySummary is a frame's group keys in the form the groupby shuffle
// routed by before it routed by position: one small ordinal per row (which
// of the frame's distinct keys the row carries, in first-appearance order)
// plus, per distinct key, its 64-bit hash and a boxed exemplar tuple for
// collision verification. Only paperbench's replay calls it; ROADMAP item
// 3's benchmark follow-up deletes it.
type GroupKeySummary struct {
	// Ordinals holds, per row, the index of the row's key in Hashes.
	Ordinals []int32
	// Hashes holds the row hash of each distinct key.
	Hashes []uint64
	// Exemplars holds one boxed key tuple per distinct key.
	Exemplars [][]types.Value
}

// SummarizeGroupKeys computes the GroupKeySummary of df over the named key
// columns. Empty keys yield the whole-frame group: every row gets ordinal
// 0. The ordinals are GroupPartial's own group ids over the frame; each
// exemplar is boxed from the key's first row. Only paperbench's replay
// calls it; ROADMAP item 3's benchmark follow-up deletes it.
func SummarizeGroupKeys(df *core.DataFrame, keys []string) (*GroupKeySummary, error) {
	cols, err := groupKeyCols(df, keys)
	if err != nil {
		return nil, err
	}
	n := df.NRows()
	s := &GroupKeySummary{Ordinals: make([]int32, n)}
	var t keyTable
	fk := t.frame(cols, n)
	fk.ids(0, s.Ordinals)
	s.Hashes, s.Exemplars = t.index.hashes, make([][]types.Value, len(t.rows))
	for id, i := range t.rows {
		key := make([]types.Value, len(cols))
		for k, c := range cols {
			key[k] = c.Value(int(i))
		}
		s.Exemplars[id] = key
	}
	return s, nil
}

// GroupKeyFold is the prefix-foldable global form of band key summaries:
// feed it each band's distinct-key stats IN BAND ORDER and it assigns every
// key a global id equal to its first-appearance rank under the single-node
// scan order. Hash collisions between distinct keys are broken by exemplar
// verification under tuplesEqual, the same equivalence the per-row
// summaries use. Only paperbench's replay reaches it (through
// modin.PlanGroupRouting); ROADMAP item 3's benchmark follow-up deletes it.
type GroupKeyFold struct {
	// Exemplars and Hashes are indexed by global id (= global
	// first-appearance rank); Hashes is the index's own slice.
	Exemplars [][]types.Value
	Hashes    []uint64

	index keyIndex
}

// NewGroupKeyFold returns an empty fold.
func NewGroupKeyFold() *GroupKeyFold { return &GroupKeyFold{} }

// AddBand folds one band's distinct-key stats (hash and exemplar per key,
// in the band's first-appearance order). Bands must arrive in band order
// for global ids to equal global first-appearance ranks.
func (f *GroupKeyFold) AddBand(hashes []uint64, exemplars [][]types.Value) {
	for d, h := range hashes {
		key := exemplars[d]
		if _, added := f.index.insert(h, func(id int32) bool { return tuplesEqual(f.Exemplars[id], key) }); added {
			f.Exemplars = append(f.Exemplars, key)
		}
	}
	f.Hashes = f.index.hashes
}
