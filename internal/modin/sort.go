package modin

import (
	"container/heap"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// SORT lowers to a range shuffle: each band contributes a small key sample
// (summarize), the plan picks nb-1 range bounds from the pooled samples,
// each partition task stably sorts its band and slices it into per-bucket
// runs (contiguous, zero-copy), and each merge task k-way merges only the
// runs routed to its bucket. Equal keys always route to one bucket and ties
// break toward the earlier band, so the concatenated buckets reproduce the
// stable single-node sort exactly — while every output band is its own
// future.

// sortSampleTarget bounds the per-band key samples contributed to the plan.
const sortSampleTarget = 32

// sortSummary is one band's key sample.
type sortSummary struct {
	samples [][]types.Value
}

// sortPlan carries the bucket range bounds: bucket b receives keys ≤
// bounds[b]; the final bucket receives the rest.
type sortPlan struct {
	bounds [][]types.Value
}

// sortKeyVecs resolves the comparison key columns (row labels for
// label-sorts) and the per-key descending flags.
func sortKeyVecs(df *core.DataFrame, node *algebra.Sort) ([]vector.Vector, []bool, error) {
	if node.ByLabels {
		return []vector.Vector{df.RowLabels()}, []bool{false}, nil
	}
	keys := make([]vector.Vector, len(node.Order))
	desc := make([]bool, len(node.Order))
	for k, o := range node.Order {
		j := df.ColIndex(o.Col)
		if j < 0 {
			return nil, nil, fmt.Errorf("modin: sort on %w %q", dferrors.ErrUnknownColumn, o.Col)
		}
		keys[k] = df.TypedCol(j)
		desc[k] = o.Desc
	}
	return keys, desc, nil
}

// keyTuple materializes row i's comparison key (only for the small plan
// samples; the per-row paths compare typed vectors directly).
func keyTuple(keys []vector.Vector, i int) []types.Value {
	out := make([]types.Value, len(keys))
	for k := range keys {
		out[k] = keys[k].Value(i)
	}
	return out
}

// compareTuples orders two key tuples under the per-key direction flags.
func compareTuples(a, b []types.Value, desc []bool) int {
	for k := range a {
		c := a[k].Compare(b[k])
		if desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// compareRowBound orders row i of the typed key vectors against a boxed
// bound tuple, through the mixed comparison kernel — the per-row half never
// boxes.
func compareRowBound(keys []vector.Vector, i int, bound []types.Value, desc []bool) int {
	for k := range keys {
		c := vector.CompareRowValue(keys[k], i, bound[k])
		if desc[k] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// sortDesc returns the direction flags without needing a frame.
func sortDesc(node *algebra.Sort) []bool {
	if node.ByLabels {
		return []bool{false}
	}
	desc := make([]bool, len(node.Order))
	for k, o := range node.Order {
		desc[k] = o.Desc
	}
	return desc
}

func (e *Engine) sortShuffle(node *algebra.Sort) *physical.Shuffle {
	nb := e.bands
	return &physical.Shuffle{
		Name:    "sort",
		Buckets: nb,
		Summarize: func(_ int, band *core.DataFrame) (any, error) {
			samples, err := SampleSortKeys(band, node)
			if err != nil {
				return nil, err
			}
			return &sortSummary{samples: samples}, nil
		},
		Plan: func(summaries []any, _ []*partition.Frame) (any, error) {
			var all [][]types.Value
			for _, s := range summaries {
				all = append(all, s.(*sortSummary).samples...)
			}
			return &sortPlan{bounds: PlanSortBounds(all, nb, node)}, nil
		},
		Partition: func(_ int, df *core.DataFrame, plan any) ([]*core.DataFrame, error) {
			// The band is sorted, so each bucket's rows are one contiguous
			// run: binary-search the first row past each bound and slice —
			// routing moves no cells (PartitionSortedBand, shared with the
			// cluster workers).
			return PartitionSortedBand(df, node, plan.(*sortPlan).bounds, nb)
		},
		Merge: func(_ int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			// The k-way run merge needs every run at once.
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			return MergeSortBucket(frames, node)
		},
	}
}

// mergeSortedRuns k-way merges stably-sorted runs into one frame. Ties
// resolve toward the earlier run (and the earlier row within a run), which
// reproduces the stable single-node sort when runs arrive in input-band
// order.
func mergeSortedRuns(runs []*core.DataFrame, node *algebra.Sort) (*core.DataFrame, error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	cat, err := algebra.VStackFrames(runs...)
	if err != nil {
		return nil, err
	}
	keys, desc, err := sortKeyVecs(cat, node)
	if err != nil {
		return nil, err
	}
	// less orders global positions over the concatenated runs through the
	// typed comparison kernels; ties resolve to the earlier position, which
	// is the earlier run.
	less := func(a, b int) bool {
		for k := range keys {
			c := vector.CompareRows(keys[k], a, keys[k], b)
			if desc[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return a < b
	}

	offsets := make([]int, len(runs)+1)
	for r, run := range runs {
		offsets[r+1] = offsets[r] + run.NRows()
	}
	mh := &mergeHeap{less: less}
	for r := range runs {
		if offsets[r] < offsets[r+1] {
			mh.items = append(mh.items, mergeCursor{pos: offsets[r], end: offsets[r+1]})
		}
	}
	heap.Init(mh)
	perm := make([]int, 0, cat.NRows())
	for mh.Len() > 0 {
		cur := mh.items[0]
		perm = append(perm, cur.pos)
		cur.pos++
		if cur.pos < cur.end {
			mh.items[0] = cur
			heap.Fix(mh, 0)
		} else {
			heap.Pop(mh)
		}
	}
	return cat.TakeRows(perm), nil
}

// mergeCursor tracks one sorted run's next global position.
type mergeCursor struct{ pos, end int }

// mergeHeap orders run cursors by their head rows.
type mergeHeap struct {
	items []mergeCursor
	less  func(a, b int) bool
}

func (h *mergeHeap) Len() int           { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool { return h.less(h.items[i].pos, h.items[j].pos) }
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)         { h.items = append(h.items, x.(mergeCursor)) }
func (h *mergeHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}
