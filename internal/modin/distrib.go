package modin

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// Exported shuffle-phase helpers: the partition→merge→restore protocol of
// the GROUPBY shuffle and the summarize→plan→partition→merge protocol of
// the SORT shuffle, factored so the in-process shuffles (shuffle.go,
// sort.go) and the cluster coordinator/worker (internal/cluster) run the
// exact same code. The distributed backend ships only DATA — routed pieces
// between workers, merged buckets and sort samples to the coordinator,
// range bounds back down — and both sides call into these functions, which
// is what keeps a distributed run cell-identical to the local one.
//
// A GROUPBY band routes one of two payloads (PartitionGroupBand). When
// every aggregate combines exactly (algebra.ExactCombine: COUNT, SIZE, MIN,
// MAX) the band folds into one GroupPartial and routes one state row per
// group; otherwise it routes its rows, since a float SUM or MEAN combined
// from band partials is reassociated and would not be cell-identical to the
// single-node fold. Either way a key goes to bucket hash % buckets, a pure
// function of the key, and every routed row or state is labelled with its
// position, band<<32 | row of its (first) row. A bucket folds its pieces in
// band order, and a piece lists its rows in band-row order, so the groups
// of one bucket appear in strictly ascending first position; restoring the
// buckets by first position (RestoreGroupOrder) is global first-appearance
// order. No band summary, no plan fold: a band routes and is released the
// moment it is computed.

// PartitionGroupBand is the groupby partition phase both backends run: it
// cuts band `band` of the shuffle's input into one piece per hash bucket —
// the band partial's state frames, or the band's rows (algebra.
// RouteGroupRows) — each labelled with its rows' positions.
func PartitionGroupBand(df *core.DataFrame, spec expr.GroupBySpec, band, buckets int) ([]*core.DataFrame, error) {
	if !algebra.ExactCombine(spec) {
		return algebra.RouteGroupRows(df, spec, band, buckets)
	}
	g := algebra.NewGroupPartial(spec)
	if err := g.AddFrame(df); err != nil {
		return nil, err
	}
	return g.StateFrames(df, band, buckets)
}

// GroupPosCol carries each merged group's first position out of a bucket
// merge that other buckets follow; the restore consumes (and drops) it
// positionally, so a colliding user column name is harmless.
const GroupPosCol = "__group_pos__"

// MergeGroupPieces is the groupby merge a cluster worker runs on one
// bucket: it folds the bucket's routed pieces (in band order) and tags each
// group with its first position (GroupPosCol, the last column), from which
// the coordinator restores global order (RestoreGroupBuckets).
func MergeGroupPieces(frames []*core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
	return mergeGroupBucket(physical.PiecesOf(frames...), spec, true)
}

// mergeGroupBucket folds one bucket's routed pieces. tag appends each
// group's first position as GroupPosCol for the restore that follows;
// otherwise the bucket is the whole result, its labels the keys (AsLabels)
// or positional.
func mergeGroupBucket(pieces []physical.Piece, spec expr.GroupBySpec, tag bool) (*core.DataFrame, error) {
	spec.Sorted = false // hashing per bucket; sortedness is a single-node optimization
	out, first, err := foldGroupPieces(pieces, spec, true)
	if err != nil {
		return nil, err
	}
	if tag {
		return out.AppendColumn(types.String(GroupPosCol), vector.NewInt(first, nil), types.Int)
	}
	if spec.AsLabels {
		return out, nil
	}
	return out.WithRowLabels(vector.Range(0, out.NRows()))
}

// foldGroupPieces folds one bucket's pieces, in band order, into one
// GroupPartial: a state frame through AddState, rows through AddFrame — one
// sequential fold either way, which is what keeps float sums bit-identical
// to the single-node fold. Each piece is taken as the fold consumes it, so
// a spilled bucket never re-materializes whole — what keeps a pass-through
// groupby's merge phase O(one piece + accumulator state). routed pieces
// come from PartitionGroupBand: the fold restores a collecting spec's input
// labels and returns each group's first position, the row label of the row
// or state that added the group, read into one exact slice at the end — so
// a piece that added groups keeps its position labels until then.
func foldGroupPieces(pieces []physical.Piece, spec expr.GroupBySpec, routed bool) (*core.DataFrame, []int64, error) {
	g := algebra.NewGroupPartial(spec)
	var from []int            // by piece that added groups: its first group
	var added []vector.Vector // and its positions
	for _, p := range pieces {
		f, err := p.Frame()
		if err != nil {
			return nil, nil, err
		}
		var positions vector.Vector
		seen := g.NumGroups()
		if algebra.IsGroupState(f, spec) {
			positions, err = f.RowLabels(), g.AddState(f)
		} else if !routed {
			err = g.AddFrame(f)
		} else if f, positions, err = algebra.RoutedRows(f, spec); err == nil {
			err = g.AddFrame(f)
		}
		if err != nil {
			return nil, nil, err
		}
		if routed && g.NumGroups() > seen {
			from, added = append(from, seen), append(added, positions)
		}
	}
	var first []int64
	if routed {
		first = make([]int64, g.NumGroups())
	}
	from = append(from, len(first))
	for a, positions := range added {
		for id := from[a]; id < from[a+1]; id++ {
			first[id] = positions.Value(g.FirstRow(id)).Int()
		}
	}
	out, err := g.Finalize()
	return out, first, err
}

// RestoreGroupBuckets restores global first-appearance order over merged
// buckets that MergeGroupPieces tagged: it strips each bucket's GroupPosCol
// and interleaves the buckets by it (RestoreGroupOrder).
func RestoreGroupBuckets(merged []*core.DataFrame, asLabels bool) (*core.DataFrame, error) {
	frames := make([]*core.DataFrame, len(merged))
	positions := make([][]int64, len(merged))
	for b, df := range merged {
		j := df.NCols() - 1
		if j < 0 {
			return nil, fmt.Errorf("modin: group restore bucket %d has no position column", b)
		}
		positions[b] = ordColumn(df.TypedCol(j))
		frames[b] = df.DropColumn(j)
	}
	return RestoreGroupOrder(frames, positions, asLabels)
}

// ordColumn reads a carried ordinal column (group positions) as typed
// int64s.
func ordColumn(v vector.Vector) []int64 {
	if data, _, idx, ok := vector.IntData(v); ok && idx == nil {
		return data
	}
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = v.Value(i).Int()
	}
	return out
}

// mergeOrdinals visits the rows of several ascending ordinal runs in
// ascending ordinal order: visit(r, from, to) hands over rows [from, to) of
// run r, each stretch as long as no other run's head comes before its end.
// It is the k-way merge behind the groupby restore; equal ordinals in
// different runs go in run order.
func mergeOrdinals(runs [][]int64, visit func(r, from, to int)) {
	cur := make([]int, len(runs))
	for {
		min, next := -1, int64(math.MaxInt64) // the smallest head, and the next smallest
		for r, run := range runs {
			if cur[r] == len(run) {
				continue
			}
			switch h := run[cur[r]]; {
			case min < 0:
				min = r
			case h < runs[min][cur[min]]:
				// Every other head seen is at or above the old minimum.
				next, min = runs[min][cur[min]], r
			case h < next:
				next = h
			}
		}
		if min < 0 {
			return
		}
		run, from := runs[min], cur[min]
		to := from + 1
		for to < len(run) && run[to] < next {
			to++
		}
		visit(min, from, to)
		cur[min] = to
	}
}

// RestoreGroupOrder interleaves merged buckets back into global
// first-appearance group order. positions[b] holds bucket b's groups' first
// positions, which a bucket's band-order fold leaves strictly ascending (a
// run that is not is refused, naming its bucket), so a k-way ascending merge
// over the buckets reproduces the exact group order — and, with positional
// labels reassigned, the exact frame — a single-node fold produces. Global
// first-appearance ranks, as PlanGroupRouting hands them out, order the
// same way. asLabels keeps the buckets' key row labels (the AsIndex form);
// otherwise labels become the global positional sequence.
func RestoreGroupOrder(frames []*core.DataFrame, positions [][]int64, asLabels bool) (*core.DataFrame, error) {
	base := make([]int, len(frames)) // bucket b's first row in the stacked buckets
	total := 0
	for b, f := range frames {
		run := positions[b]
		if f.NRows() != len(run) {
			return nil, fmt.Errorf("modin: group restore bucket %d has %d groups and %d positions", b, f.NRows(), len(run))
		}
		for i := 1; i < len(run); i++ {
			if run[i] <= run[i-1] {
				return nil, fmt.Errorf("modin: group restore bucket %d: position %d of group %d does not follow %d", b, run[i], i, run[i-1])
			}
		}
		base[b] = total
		total += f.NRows()
	}
	perm := make([]int, 0, total)
	mergeOrdinals(positions, func(b, from, to int) {
		for i := from; i < to; i++ {
			perm = append(perm, base[b]+i)
		}
	})
	out, err := algebra.VStackFrames(frames...)
	if err != nil {
		return nil, err
	}
	identity := true
	for i, p := range perm {
		identity = identity && i == p
	}
	switch {
	case asLabels && identity:
		return out, nil
	case asLabels:
		return out.TakeRows(perm), nil
	case identity:
		return out.WithRowLabels(vector.Range(0, total))
	}
	// Positional labels replace the buckets': take the columns alone.
	cols := make([]vector.Vector, out.NCols())
	for j := range cols {
		cols[j] = out.Col(j).Take(perm)
	}
	return core.Build(cols, vector.Range(0, total), out.ColLabels(), out.Domains(), out.Cache())
}

// The replay's group protocol. cmd/paperbench's replay times the groupby
// shuffle the engine ran before it routed by position: per-band key
// summaries, a serial plan fold into global first-appearance ranks, merges
// that check their group counts against the plan. Only the replay calls
// GroupBandStat, GroupStatOf, GroupRouting, PlanGroupRouting and
// MergeGroupBucket; ROADMAP item 3's benchmark follow-up deletes them.

// GroupBandStat is one band's group-key summary: per distinct key (in band
// first-appearance order) its 64-bit hash and exemplar tuple. Only the
// replay calls it; ROADMAP item 3's benchmark follow-up deletes it.
type GroupBandStat struct {
	Hashes    []uint64
	Exemplars [][]types.Value
}

// GroupStatOf extracts a band's stat from its key summary. Only the replay
// calls it; ROADMAP item 3's benchmark follow-up deletes it.
func GroupStatOf(sum *algebra.GroupKeySummary) *GroupBandStat {
	return &GroupBandStat{Hashes: sum.Hashes, Exemplars: sum.Exemplars}
}

// GroupRouting is the plan fold's result: Ranks[b] lists bucket b's groups'
// global first-appearance ranks in ascending order. Only the replay calls
// it; ROADMAP item 3's benchmark follow-up deletes it.
type GroupRouting struct {
	Ranks [][]int64
}

// PlanGroupRouting folds per-band key stats — in band order, reproducing
// the single-node scan's first-appearance order — into each hash bucket's
// ascending global rank list. Global ids are assigned in fold order, so a
// key's id IS its first-appearance rank; hash collisions between distinct
// keys are broken by exemplar verification. skewAware is ignored. Only the
// replay calls it; ROADMAP item 3's benchmark follow-up deletes it.
func PlanGroupRouting(stats []*GroupBandStat, buckets int, skewAware bool) *GroupRouting {
	fold := algebra.NewGroupKeyFold()
	for _, st := range stats {
		if st == nil {
			continue
		}
		fold.AddBand(st.Hashes, st.Exemplars)
	}
	r := &GroupRouting{Ranks: make([][]int64, buckets)}
	sizes := make([]int, buckets)
	for _, h := range fold.Hashes {
		sizes[int(h%uint64(buckets))]++
	}
	backing := make([]int64, len(fold.Hashes))
	for b := range r.Ranks {
		r.Ranks[b] = backing[:0:sizes[b]]
		backing = backing[sizes[b]:]
	}
	// Appending in gid order keeps each bucket's rank list ascending.
	for gid, h := range fold.Hashes {
		b := int(h % uint64(buckets))
		r.Ranks[b] = append(r.Ranks[b], int64(gid))
	}
	return r
}

// MergeGroupBucket folds one bucket's pieces (in band order) with the
// engine's fold, checks the group count against the plan's rank list, and —
// when other buckets exist — appends each group's global rank as the last
// column. pool is unused. Only the replay calls it; ROADMAP item 3's
// benchmark follow-up deletes it.
func MergeGroupBucket(pool *exec.Pool, frames []*core.DataFrame, spec expr.GroupBySpec, routing *GroupRouting, bucket int) (*core.DataFrame, error) {
	spec.Sorted = false
	out, _, err := foldGroupPieces(physical.PiecesOf(frames...), spec, false)
	if err != nil {
		return nil, err
	}
	ranks := routing.Ranks[bucket]
	if out.NRows() != len(ranks) {
		return nil, fmt.Errorf("modin: groupby bucket %d produced %d groups, plan routed %d", bucket, out.NRows(), len(ranks))
	}
	if len(routing.Ranks) == 1 {
		if spec.AsLabels {
			return out, nil
		}
		return out.WithRowLabels(vector.Range(0, out.NRows()))
	}
	return out.AppendColumn(types.String(GroupPosCol), vector.NewInt(ranks, nil), types.Int)
}

// SampleSortKeys draws a band's bounded key sample for the sort plan.
func SampleSortKeys(band *core.DataFrame, node *algebra.Sort) ([][]types.Value, error) {
	keys, _, err := sortKeyVecs(band, node)
	if err != nil {
		return nil, err
	}
	n := band.NRows()
	step := n / sortSampleTarget
	if step < 1 {
		step = 1
	}
	var samples [][]types.Value
	for i := 0; i < n; i += step {
		samples = append(samples, keyTuple(keys, i))
	}
	return samples, nil
}

// PlanSortBounds pools the bands' key samples and picks buckets-1 range
// bounds: bucket b receives keys ≤ bounds[b], the final bucket the rest.
func PlanSortBounds(samples [][]types.Value, buckets int, node *algebra.Sort) [][]types.Value {
	desc := sortDesc(node)
	all := append([][]types.Value(nil), samples...)
	sort.SliceStable(all, func(i, j int) bool {
		return compareTuples(all[i], all[j], desc) < 0
	})
	var bounds [][]types.Value
	for b := 1; b < buckets && len(all) > 0; b++ {
		bounds = append(bounds, all[b*len(all)/buckets])
	}
	return bounds
}

// PartitionSortedBand orders the resolved band by the sort keys
// (vector.Order) and cuts that order at the bounds, binary-searching the
// first position past each: bucket b's run is a selection view over the
// band at its stretch of the order (core.DataFrame.ViewRows), the form
// partition.SplitRows routes, so routing copies no cells. It is the
// partition phase both backends run.
func PartitionSortedBand(df *core.DataFrame, node *algebra.Sort, bounds [][]types.Value, buckets int) ([]*core.DataFrame, error) {
	// The band's sample already resolved the key columns; the runs view the
	// resolved band, so they carry the typed form.
	df = df.Resolved()
	keys, desc, err := sortKeyVecs(df, node)
	if err != nil {
		return nil, err
	}
	n := df.NRows()
	order := vector.Order(keys, desc, n)
	pieces := make([]*core.DataFrame, buckets)
	lo := 0
	for b := 0; b < buckets; b++ {
		hi := n
		if b < len(bounds) {
			bound := bounds[b]
			hi = lo + sort.Search(n-lo, func(i int) bool {
				return compareRowBound(keys, order[lo+i], bound, desc) > 0
			})
		}
		pieces[b] = df.ViewRows(order[lo:hi])
		lo = hi
	}
	return pieces, nil
}

// MergeSortBucket merges one bucket's routed runs (in band order) into one
// band: vector.MergeRuns orders their rows, ties toward the earlier run,
// which reproduces the stable single-node sort, and every column is one
// vector.TakeRuns over the runs, so each row is copied once. The band holds
// its own storage: a single run is taken through its view, and a bucket
// that received no rows is an empty detached band with the input's
// columns. A gathered result could keep a single run's view as a piece of
// its chunks, saving that take, but the view would pin the whole input
// band for the result's life; only an input already ordered by the key
// routes one run per bucket, so the take stays.
func MergeSortBucket(pieces []*core.DataFrame, node *algebra.Sort) (*core.DataFrame, error) {
	runs := make([]*core.DataFrame, 0, len(pieces))
	for _, df := range pieces {
		if df.NRows() > 0 {
			runs = append(runs, df)
		}
	}
	switch len(runs) {
	case 0:
		return pieces[0].SliceRows(0, 0).Detach(), nil
	case 1:
		return runs[0].Compact(), nil
	}
	first := runs[0]
	keys := make([][]vector.Vector, len(runs))
	lens := make([]int, len(runs))
	for r, run := range runs {
		if run.NCols() != first.NCols() {
			return nil, fmt.Errorf("modin: sort runs of %d and %d columns", first.NCols(), run.NCols())
		}
		var err error
		if keys[r], _, err = sortKeyVecs(run, node); err != nil {
			return nil, err
		}
		lens[r] = run.NRows()
	}
	at := vector.MergeRuns(keys, lens, sortDesc(node))
	take := func(col func(*core.DataFrame) vector.Vector) vector.Vector {
		parts := make([]vector.Vector, len(runs))
		for r, run := range runs {
			parts[r] = col(run)
		}
		return vector.TakeRuns(parts, at)
	}
	cols := make([]vector.Vector, first.NCols())
	doms := make([]types.Domain, first.NCols())
	for j := range cols {
		cols[j] = take(func(df *core.DataFrame) vector.Vector { return df.Col(j) })
		doms[j] = algebra.StackedDomain(runs, j, cols[j])
	}
	return core.Build(cols, take((*core.DataFrame).RowLabels), first.ColLabels(), doms, first.Cache())
}
