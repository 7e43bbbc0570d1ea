package modin

import (
	"fmt"
	"slices"
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

// GroupBandStat is the coordinator-visible part of one band's group-key
// summary: per distinct key (in band first-appearance order) its 64-bit
// hash, exemplar tuple, and row count. The per-row ordinal table stays with
// the band's worker — it is O(rows), everything here is O(distinct).
type GroupBandStat struct {
	Hashes    []uint64
	Exemplars [][]types.Value
	Counts    []int64
}

// GroupStatOf extracts a band's wire-safe stat from its key summary.
func GroupStatOf(sum *algebra.GroupKeySummary) *GroupBandStat {
	counts := make([]int64, len(sum.Hashes))
	for _, d := range sum.Ordinals {
		counts[d]++
	}
	return &GroupBandStat{Hashes: sum.Hashes, Exemplars: sum.Exemplars, Counts: counts}
}

// RouteGroupBand is the groupby partition phase both backends run: it cuts a
// summarized band into one zero-copy piece per hash bucket. bucket = hash %
// buckets is a pure function of the key, identical in every band, so a band
// routes from its OWN summary. The aggregate inputs are resolved on the band
// first (the summary already resolved the keys), so every column the merge
// reads leaves here typed — by the band's induction, in the band's task —
// and no piece handed to a merge, a spill or the wire is parsed again.
func RouteGroupBand(df *core.DataFrame, sum *algebra.GroupKeySummary, spec expr.GroupBySpec, buckets int) ([]*core.DataFrame, error) {
	for _, a := range spec.Aggs {
		if a.Col == "" {
			continue // size counts rows, whatever they hold
		}
		if j := df.ColIndex(a.Col); j >= 0 {
			df.TypedCol(j)
		}
	}
	assign := make([]int, len(sum.Ordinals))
	for i, d := range sum.Ordinals {
		assign[i] = int(sum.Hashes[d] % uint64(buckets))
	}
	return partition.SplitRows(df, assign, buckets)
}

// GroupRouting is the finalize state produced by the plan fold. Rows route
// incrementally by stable key hash — bucket = hash % buckets, a pure
// function of the key, so every band assigns identically without seeing any
// other band — and the fold's job shrinks to repairing global order:
// Ranks[b] lists bucket b's groups' global first-appearance ranks in
// ascending order (folding a bucket's pieces in band order yields exactly
// these groups in exactly this rank order). Heavy flags buckets owning a
// key above the fair row share (nil when skew-aware planning is off).
type GroupRouting struct {
	Ranks [][]int64
	Heavy []bool
}

// PlanGroupRouting folds per-band key stats — in band order, reproducing
// the single-node scan's first-appearance order — into each hash bucket's
// ascending global rank list. Global ids are assigned in fold order, so a
// key's id IS its first-appearance rank; hash collisions between distinct
// keys are broken by exemplar verification. Unlike the routing fold this
// replaced, nothing here gates partitioning: bands route themselves by
// hash%buckets, and this plan only tells each merge which ranks it owns.
func PlanGroupRouting(stats []*GroupBandStat, buckets int, skewAware bool) *GroupRouting {
	fold := algebra.NewGroupKeyFold()
	for _, st := range stats {
		if st == nil {
			continue
		}
		fold.AddBand(st.Hashes, st.Exemplars, st.Counts)
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
	if skewAware {
		// Hash routing can't isolate a hot key into its own bucket the way
		// the old volume-weighted cuts did, but the stats still carry exact
		// per-key volumes: flag buckets owning a key above the fair share so
		// their merges split across parallel partial-merge chunks.
		fair := fold.Total / int64(buckets)
		for b, ranks := range r.Ranks {
			for _, g := range ranks {
				if fold.Counts[g] > fair {
					if r.Heavy == nil {
						r.Heavy = make([]bool, buckets)
					}
					r.Heavy[b] = true
					break
				}
			}
		}
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
// first-appearance order. This is the merge phase both backends run.
func MergeGroupBucket(pool *exec.Pool, frames []*core.DataFrame, spec expr.GroupBySpec, routing *GroupRouting, bucket int) (*core.DataFrame, error) {
	return mergeGroupBucket(pool, physical.PiecesOf(frames...), spec, routing, bucket)
}

// mergeGroupBucket is MergeGroupBucket over the scheduler's piece handles.
func mergeGroupBucket(pool *exec.Pool, pieces []physical.Piece, spec expr.GroupBySpec, routing *GroupRouting, bucket int) (*core.DataFrame, error) {
	spec.Sorted = false // hashing per bucket; sortedness is a single-node optimization
	out, err := foldGroupPieces(pool, pieces, spec, routing.Heavy != nil && routing.Heavy[bucket])
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

// foldGroupPieces folds one bucket's routed pieces into its grouped frame.
// When no piece is parked in a spill store, dict-coded keys short-circuit to
// the typed code-indexed kernel (algebra.DictGroupFrames — the pieces are
// views over band slices of one shared category table, so the direct-code
// path applies). Otherwise each piece is taken as the fold consumes it, so
// a spilled bucket never re-materializes whole — what keeps a pass-through
// groupby's merge phase O(one piece + accumulator state). A bucket flagged
// heavy splits its pieces into contiguous chunks, builds a group partial
// per chunk in parallel, and recombines in chunk order —
// GroupPartial.Merge appends the right side's new groups after the left's,
// so the chunked fold reproduces the sequential first-appearance group
// order exactly.
func foldGroupPieces(pool *exec.Pool, pieces []physical.Piece, spec expr.GroupBySpec, heavy bool) (*core.DataFrame, error) {
	if !slices.ContainsFunc(pieces, physical.Piece.Stored) {
		frames, _ := physical.Frames(pieces) // nothing stored, nothing to fail
		if out, ok, err := algebra.DictGroupFrames(frames, spec); ok || err != nil {
			return out, err
		}
	}
	fold := func(pieces []physical.Piece) (*algebra.GroupPartial, error) {
		g := algebra.NewGroupPartial(spec)
		for _, p := range pieces {
			f, err := p.Frame()
			if err != nil {
				return nil, err
			}
			if err := g.AddFrame(f); err != nil {
				return nil, err
			}
		}
		return g, nil
	}
	if !heavy || len(pieces) < 2 {
		g, err := fold(pieces)
		if err != nil {
			return nil, err
		}
		return g.Finalize()
	}
	cuts := bandCuts(len(pieces), min(max(pool.Workers(), 2), len(pieces)))
	partials, err := exec.MapParallel(pool, len(cuts)-1, func(c int) (*algebra.GroupPartial, error) {
		return fold(pieces[cuts[c]:cuts[c+1]])
	})
	if err != nil {
		return nil, err
	}
	g := partials[0]
	for _, o := range partials[1:] {
		g.Merge(o)
	}
	return g.Finalize()
}

// splitOrdColumn cuts each band of a shuffle's output into its rows and the
// ordinals its merge carried out in the last column (group ranks, left-input
// row ordinals), which the restore consumes positionally.
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

// ordColumn reads a carried ordinal column as typed int64s.
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

// restoreOrder stacks the buckets and puts their rows in ascending ordinal
// order — the k-way merge both restores share. Each bucket's ordinals
// ascend, and equal ordinals (one left row's join matches) sit contiguously
// in ONE bucket, so taking the smallest head row by row reproduces the
// single-node row order exactly.
func restoreOrder(frames []*core.DataFrame, ords [][]int64) (*core.DataFrame, error) {
	nb := len(frames)
	bc := make([]int, 2*nb) // bucket b's stacked-row offset (bc[b]) and merge cursor (bc[nb+b])
	base, cur := bc[:nb], bc[nb:]
	total := 0
	for b, o := range ords {
		base[b] = total
		total += len(o)
	}
	perm := make([]int, 0, total)
	identity := true
	for len(perm) < total {
		min := -1
		for b := 0; b < nb; b++ {
			if cur[b] < len(ords[b]) && (min < 0 || ords[b][cur[b]] < ords[min][cur[min]]) {
				min = b
			}
		}
		next := base[min] + cur[min]
		if next != len(perm) {
			identity = false
		}
		perm = append(perm, next)
		cur[min]++
	}
	out, err := algebra.VStackFrames(frames...)
	if err != nil || identity {
		return out, err
	}
	return out.TakeRows(perm), nil
}

// RestoreGroupOrder interleaves the merged buckets back into global
// first-appearance group order: each bucket's groups sit in ascending rank
// order (MergeGroupBucket validated them against the plan), so a k-way
// ascending-rank merge over the buckets reproduces the exact group order —
// and, with positional labels reassigned, the exact frame — the single
// barrier plan produced. asLabels keeps the buckets' key row labels (the
// AsIndex form); otherwise labels become the global positional sequence.
func RestoreGroupOrder(frames []*core.DataFrame, ranks [][]int64, asLabels bool) (*core.DataFrame, error) {
	for b, f := range frames {
		if f.NRows() != len(ranks[b]) {
			return nil, fmt.Errorf("modin: group restore bucket %d has %d groups, plan routed %d", b, f.NRows(), len(ranks[b]))
		}
	}
	out, err := restoreOrder(frames, ranks)
	if err != nil || asLabels {
		return out, err
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
