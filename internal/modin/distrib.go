package modin

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// Exported shuffle-phase helpers: the summarize→plan→partition→merge
// protocol of the GROUPBY and SORT shuffles, factored so the in-process
// shuffles (shuffle.go, sort.go) and the cluster coordinator/worker
// (internal/cluster) run the exact same fold. The distributed backend ships
// only DATA — band statistics up to the coordinator, routing tables back
// down — and both sides call into these functions, which is what keeps a
// distributed run cell-identical to the local one.
//
// A GROUPBY band routes one of two payloads. When every aggregate combines
// exactly (algebra.ExactCombine: COUNT, SIZE, MIN, MAX) the band folds into
// one GroupPartial, whose key table is also its plan stat, and routes one
// state row per group. Otherwise it routes its rows: a float SUM or MEAN
// combined from band partials is reassociated, so it would not be
// cell-identical to the single-node fold. Either way a bucket's merge folds
// its pieces in band order, so the plan's ranks and the order restore are
// the same for both.

// GroupBandStat is the coordinator-visible part of one band's group-key
// summary: per distinct key (in band first-appearance order) its 64-bit
// hash and exemplar tuple. Whatever the band routes stays with the band's
// worker — everything here is O(distinct).
type GroupBandStat struct {
	Hashes    []uint64
	Exemplars [][]types.Value
}

// GroupStatOf extracts a band's wire-safe stat from its key summary.
func GroupStatOf(sum *algebra.GroupKeySummary) *GroupBandStat {
	return &GroupBandStat{Hashes: sum.Hashes, Exemplars: sum.Exemplars}
}

// GroupBand is one band's summarize phase, the same on both backends: Stat
// feeds the plan fold, and the band keeps what its own Route call needs —
// its folded partial (state path, O(distinct)) or its per-row key ordinals
// (row path, O(rows), dropped once the band is routed so they do not stay
// pinned behind the plan until end of scan).
type GroupBand struct {
	Stat *GroupBandStat

	spec    expr.GroupBySpec
	partial *algebra.GroupPartial
	sum     *algebra.GroupKeySummary
}

// SummarizeGroupBand summarizes one band of a GROUPBY shuffle.
func SummarizeGroupBand(df *core.DataFrame, spec expr.GroupBySpec) (*GroupBand, error) {
	if algebra.ExactCombine(spec) {
		g := algebra.NewGroupPartial(spec)
		if err := g.AddFrame(df); err != nil {
			return nil, err
		}
		hashes, exemplars := g.KeyStats()
		return &GroupBand{Stat: &GroupBandStat{Hashes: hashes, Exemplars: exemplars}, spec: spec, partial: g}, nil
	}
	sum, err := algebra.SummarizeGroupKeys(df, spec.Keys)
	if err != nil {
		return nil, err
	}
	return &GroupBand{Stat: GroupStatOf(sum), spec: spec, sum: sum}, nil
}

// Route is the groupby partition phase: it cuts the summarized band df into
// one piece per hash bucket — the partial's state frames, or zero-copy row
// pieces. bucket = hash % buckets is a pure function of the key, identical
// in every band, so a band routes from its OWN summary. Row pieces leave
// with the aggregate inputs resolved on the band (the summary already
// resolved the keys), so every column the merge reads leaves here typed —
// by the band's induction, in the band's task — and no piece handed to a
// merge, a spill or the wire is parsed again. Route writes only unexported
// fields, so it may run while the plan fold reads Stat.
func (b *GroupBand) Route(df *core.DataFrame, buckets int) ([]*core.DataFrame, error) {
	if b.partial != nil {
		return b.partial.StateFrames(df, buckets)
	}
	for _, a := range b.spec.Aggs {
		if a.Col == "" {
			continue // size counts rows, whatever they hold
		}
		if j := df.ColIndex(a.Col); j >= 0 {
			df.TypedCol(j)
		}
	}
	sum := b.sum
	b.sum = nil
	assign := make([]int, len(sum.Ordinals))
	for i, d := range sum.Ordinals {
		assign[i] = int(sum.Hashes[d] % uint64(buckets))
	}
	return partition.SplitRows(df, assign, buckets)
}

// GroupRouting is the finalize state produced by the plan fold. Bands route
// by stable key hash — bucket = hash % buckets, a pure function of the key,
// so every band assigns identically without seeing any other band — and the
// fold's job shrinks to repairing global order: Ranks[b] lists bucket b's
// groups' global first-appearance ranks in ascending order (folding a
// bucket's pieces in band order yields exactly these groups in exactly this
// rank order).
type GroupRouting struct {
	Ranks [][]int64
}

// PlanGroupRouting folds per-band key stats — in band order, reproducing
// the single-node scan's first-appearance order — into each hash bucket's
// ascending global rank list. Global ids are assigned in fold order, so a
// key's id IS its first-appearance rank; hash collisions between distinct
// keys are broken by exemplar verification. Nothing here gates
// partitioning: bands route themselves by hash%buckets, and this plan only
// tells each merge which ranks it owns. skewAware is ignored: a bucket's
// merge is one fold in band order whatever its volume, since splitting it
// into partials merged afterwards would reassociate float sums.
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
	// Appending in gid order keeps each bucket's rank list ascending — the
	// invariant MergeGroupBucket validates against and the restore merge
	// relies on.
	for gid, h := range fold.Hashes {
		b := int(h % uint64(buckets))
		r.Ranks[b] = append(r.Ranks[b], int64(gid))
	}
	return r
}

// GroupRankCol carries each merged group's global first-appearance rank out
// of a multi-bucket merge; the restore pass consumes (and drops) it
// positionally, so a colliding user column name is harmless.
const GroupRankCol = "__group_rank__"

// MergeGroupBucket folds one bucket's routed pieces (in band order) into
// its merged grouped frame, validates the group count against the plan's
// rank list, and — when other buckets exist — tags each group with its
// global rank so the restore pass can interleave buckets back into global
// first-appearance order. This is the merge phase both backends run. A
// piece is either routed rows or a state frame (algebra.IsGroupState); pool
// is unused, kept for callers that still pass it.
func MergeGroupBucket(pool *exec.Pool, frames []*core.DataFrame, spec expr.GroupBySpec, routing *GroupRouting, bucket int) (*core.DataFrame, error) {
	return mergeGroupBucket(physical.PiecesOf(frames...), spec, routing, bucket)
}

// mergeGroupBucket is MergeGroupBucket over the scheduler's piece handles.
func mergeGroupBucket(pieces []physical.Piece, spec expr.GroupBySpec, routing *GroupRouting, bucket int) (*core.DataFrame, error) {
	spec.Sorted = false // hashing per bucket; sortedness is a single-node optimization
	out, err := foldGroupPieces(pieces, spec)
	if err != nil {
		return nil, err
	}
	ranks := routing.Ranks[bucket]
	if out.NRows() != len(ranks) {
		return nil, fmt.Errorf("modin: groupby bucket %d produced %d groups, plan routed %d", bucket, out.NRows(), len(ranks))
	}
	if len(routing.Ranks) == 1 {
		// Single bucket: its ranks are already 0..n-1, no restore follows.
		if spec.AsLabels {
			return out, nil
		}
		return out.WithRowLabels(vector.Range(0, out.NRows()))
	}
	return out.AppendColumn(types.String(GroupRankCol), vector.NewInt(ranks, nil), types.Int)
}

// foldGroupPieces folds one bucket's routed pieces, in band order, into one
// GroupPartial: a state frame through AddState, routed rows through
// AddFrame — one sequential fold either way, which is what keeps float sums
// bit-identical to the single-node fold. Each piece is taken as the fold
// consumes it, so a spilled bucket never re-materializes whole — what keeps
// a pass-through groupby's merge phase O(one piece + accumulator state).
func foldGroupPieces(pieces []physical.Piece, spec expr.GroupBySpec) (*core.DataFrame, error) {
	g := algebra.NewGroupPartial(spec)
	for _, p := range pieces {
		f, err := p.Frame()
		if err != nil {
			return nil, err
		}
		if algebra.IsGroupState(f, spec) {
			err = g.AddState(f)
		} else {
			err = g.AddFrame(f)
		}
		if err != nil {
			return nil, err
		}
	}
	return g.Finalize()
}

// splitOrdColumn cuts each merged groupby bucket into its groups and the
// global group ranks its merge tagged onto them as the last column
// (GroupRankCol), which the restore consumes positionally.
func splitOrdColumn(f *partition.Frame) ([]*core.DataFrame, [][]int64, error) {
	frames := make([]*core.DataFrame, f.RowBands())
	ords := make([][]int64, len(frames))
	for b := range frames {
		df, err := f.RowBand(b)
		if err != nil {
			return nil, nil, err
		}
		j := df.NCols() - 1
		ords[b] = ordColumn(df.TypedCol(j))
		frames[b] = df.DropColumn(j)
	}
	return frames, ords, nil
}

// ordColumn reads a carried ordinal column (group ranks, join positions) as
// typed int64s.
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
// It is the k-way merge behind the groupby restore and the key-shuffled
// join's assembly; equal ordinals in different runs go in run order.
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

// RestoreGroupOrder interleaves the merged buckets back into global
// first-appearance group order: each bucket's groups sit in ascending rank
// order (MergeGroupBucket validated them against the plan), so a k-way
// ascending-rank merge over the buckets reproduces the exact group order —
// and, with positional labels reassigned, the exact frame — the single
// barrier plan produced. asLabels keeps the buckets' key row labels (the
// AsIndex form); otherwise labels become the global positional sequence.
func RestoreGroupOrder(frames []*core.DataFrame, ranks [][]int64, asLabels bool) (*core.DataFrame, error) {
	base := make([]int, len(frames)) // bucket b's first row in the stacked buckets
	total := 0
	for b, f := range frames {
		if f.NRows() != len(ranks[b]) {
			return nil, fmt.Errorf("modin: group restore bucket %d has %d groups, plan routed %d", b, f.NRows(), len(ranks[b]))
		}
		base[b] = total
		total += f.NRows()
	}
	perm := make([]int, 0, total)
	mergeOrdinals(ranks, func(b, from, to int) {
		for i := from; i < to; i++ {
			perm = append(perm, base[b]+i)
		}
	})
	out, err := algebra.VStackFrames(frames...)
	if err != nil {
		return nil, err
	}
	for i, p := range perm {
		if i != p {
			out = out.TakeRows(perm)
			break
		}
	}
	if asLabels {
		return out, nil
	}
	return out.WithRowLabels(vector.Range(0, out.NRows()))
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

// PartitionSortedBand stably sorts the band and slices it into one
// contiguous zero-copy run per bucket (binary-searching the first row past
// each bound) — the partition phase both backends run.
func PartitionSortedBand(df *core.DataFrame, node *algebra.Sort, bounds [][]types.Value, buckets int) ([]*core.DataFrame, error) {
	desc := sortDesc(node)
	// The band's sample already resolved the key columns; sorting the
	// resolved band cuts the runs from their typed form.
	sorted, err := algebra.SortFrame(df.Resolved(), node.Order, node.ByLabels)
	if err != nil {
		return nil, err
	}
	keys, _, err := sortKeyVecs(sorted, node)
	if err != nil {
		return nil, err
	}
	pieces := make([]*core.DataFrame, buckets)
	n := sorted.NRows()
	lo := 0
	for b := 0; b < buckets; b++ {
		hi := n
		if b < len(bounds) {
			bound := bounds[b]
			hi = lo + sort.Search(n-lo, func(i int) bool {
				return compareRowBound(keys, lo+i, bound, desc) > 0
			})
		}
		pieces[b] = sorted.SliceRows(lo, hi)
		lo = hi
	}
	return pieces, nil
}

// MergeSortBucket k-way merges one bucket's routed runs (in band order);
// ties resolve toward the earlier run, reproducing the stable single-node
// sort. An all-empty bucket returns the first piece so the output band
// keeps the input's arity.
func MergeSortBucket(pieces []*core.DataFrame, node *algebra.Sort) (*core.DataFrame, error) {
	runs := make([]*core.DataFrame, 0, len(pieces))
	for _, df := range pieces {
		if df.NRows() > 0 {
			runs = append(runs, df)
		}
	}
	if len(runs) == 0 {
		return pieces[0], nil
	}
	return mergeSortedRuns(runs, node)
}
