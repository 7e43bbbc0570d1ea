package modin

import (
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/vector"
)

// This file builds the engine's shuffle stages: the two-phase
// partition→route→merge lowerings of GROUPBY (key shuffle, routed by key
// hash with no summary or plan, its order restored from row positions),
// inner/left JOIN (anchored probe of one shared hash table + renumber), and — in sort.go — SORT
// (range shuffle). Each produces one independent output-band future per
// bucket, so downstream fused stages start as soon as the band that feeds
// them lands.

// restoreMinBandRows is the smallest restored-groupby band worth its own
// downstream task: outputs smaller than this per band stay in fewer bands.
const restoreMinBandRows = 256

// groupByShuffle lowers GROUPBY to a band-routed key shuffle with no
// summary and no plan: each band routes itself (PartitionGroupBand) — one
// state row per group when the aggregates combine exactly, its rows
// otherwise — to bucket hash%buckets, a pure function of the key, and
// labels what it routes with its positions, band<<32 | row. So a band
// partitions (and, streamed, is released) the moment it is computed, and
// no serial fold gates the merges. Each merge folds its pieces in band
// order and, when other buckets follow, tags every group with its first
// position; the restore pass (groupRestoreExchange) interleaves the buckets
// by those positions back into exact single-node order — same group order,
// same positional row labels.
func (e *Engine) groupByShuffle(spec expr.GroupBySpec) *physical.Shuffle {
	spec.Sorted = false // hashing per bucket; sortedness is a single-node optimization
	nb := e.bands
	return &physical.Shuffle{
		Name:    "groupby",
		Buckets: nb,
		Partition: func(band int, df *core.DataFrame, _ any) ([]*core.DataFrame, error) {
			return PartitionGroupBand(df, spec, band, nb)
		},
		Merge: func(_ int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			return mergeGroupBucket(pieces, spec, nb > 1)
		},
	}
}

// groupRestoreExchange interleaves the merged groupby buckets back into
// global first-appearance group order. Each multi-bucket merge tagged its
// groups with their first positions (GroupPosCol, always the last column);
// a single-bucket shuffle needs no repair and passes through. The k-way
// merge itself is RestoreGroupBuckets (distrib.go), shared with the cluster
// coordinator.
func (e *Engine) groupRestoreExchange(node *algebra.GroupBy, shuffled *physical.Node) *physical.Node {
	asLabels := node.Spec.AsLabels
	return exchangeStage("groupby-restore", shuffled.Shuffle.Desc, func(in []*partition.Frame) (*partition.Frame, error) {
		if in[0].RowBands() == 1 {
			// One bucket: its merge already produced final order and labels,
			// with no position column to strip.
			return in[0], nil
		}
		merged := make([]*core.DataFrame, in[0].RowBands())
		for b := range merged {
			var err error
			if merged[b], err = in[0].RowBand(b); err != nil {
				return nil, err
			}
		}
		out, err := RestoreGroupBuckets(merged, asLabels)
		if err != nil {
			return nil, err
		}
		// Grouped outputs are usually O(distinct keys) rows; fanning a
		// handful of groups across every band costs more than it buys.
		bands := e.bands
		if max := (out.NRows() + restoreMinBandRows - 1) / restoreMinBandRows; max < bands {
			bands = max
		}
		return partition.New(out, partition.Rows, bands), nil
	}, shuffled)
}

// joinProbeShuffle lowers an inner/left join to an anchored shuffle: the
// left side's bands pass through unshuffled (preserving left row order
// exactly), while the plan task gathers the right side once and builds the
// one algebra.JoinTable over it that every band's merge probes, read-only.
// Band b's join lands as soon as band b's input and the table exist — other
// left bands may still be computing. A right side missing a key column
// fails at the merges, after the left band's keys are checked, as the
// single-node join fails.
func (e *Engine) joinProbeShuffle(node *algebra.Join) *physical.Shuffle {
	return &physical.Shuffle{
		Name: "join",
		Plan: func(_ []any, sides []*partition.Frame) (any, error) {
			right, err := sides[0].ToFrame()
			if err != nil {
				return nil, err
			}
			return algebra.BuildJoinTable(right, node.On, node.OnLabels), nil
		},
		Merge: func(_ int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			band, err := pieces[0].Frame()
			if err != nil {
				return nil, err
			}
			return plan.(*algebra.JoinTable).Join(band, node.Kind)
		},
	}
}

// bandRows is the renumber pass's per-band summary: the band's row count.
func bandRows(_ int, band *core.DataFrame) (any, error) { return band.NRows(), nil }

// renumberShuffle resets row labels to one global positional sequence. It
// is an anchored shuffle with a PREFIX plan: band b's offset is the sum of
// the row counts of bands [0, b), so band b's relabel waits only on
// earlier bands — band 0 relabels the moment its own probe lands, and a
// data-column join keeps streaming through the relabel instead of
// barriering on its slowest band.
func (e *Engine) renumberShuffle() *physical.Shuffle {
	return &physical.Shuffle{
		Name:      "renumber",
		Summarize: bandRows,
		PrefixPlan: func(prefix []any) (any, error) {
			off := 0
			for _, s := range prefix {
				off += s.(int)
			}
			return off, nil
		},
		Merge: func(_ int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			df, err := pieces[0].Frame()
			if err != nil {
				return nil, err
			}
			return df.WithRowLabels(vector.Range(int64(plan.(int)), df.NRows()))
		},
	}
}
