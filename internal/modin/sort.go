package modin

import (
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
// each partition task radix-orders its band's key words (vector.Order) and
// routes each bucket's stretch of that order as a selection view over the
// band, copying no cells, and each merge task merges only the runs routed
// to its bucket, comparing their words where they compare across runs, and
// takes every output row straight from its run — the one copy a sorted row
// costs. Equal keys always route to one bucket and ties break toward the
// earlier band, so the concatenated buckets reproduce the stable
// single-node sort exactly — while every output band is its own future.

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
			// Each bucket's rows are one stretch of the band's sorted order:
			// binary-search the first position past each bound and view the
			// band there — routing moves no cells (PartitionSortedBand,
			// shared with the cluster workers).
			return PartitionSortedBand(df, node, plan.(*sortPlan).bounds, nb)
		},
		Merge: func(_ int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			// The run merge needs every run at once.
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			return MergeSortBucket(frames, node)
		},
	}
}
