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
// partition→route→merge lowerings of GROUPBY (key shuffle), JOIN (anchored
// broadcast probe + renumber), and — in sort.go — SORT (range shuffle).
// Each produces one independent output-band future per bucket, so
// downstream fused stages start as soon as the band that feeds them lands.

// restoreMinBandRows is the smallest restored-groupby band worth its own
// downstream task: outputs smaller than this per band stay in fewer bands.
const restoreMinBandRows = 256

// bandCuts splits n items into nb roughly-equal contiguous ranges
// (mirroring the partition layer's band boundaries).
func bandCuts(n, nb int) []int {
	out := make([]int, nb+1)
	for i := 0; i <= nb; i++ {
		out[i] = i * n / nb
	}
	return out
}

// groupByShuffle lowers GROUPBY to a band-routed key shuffle. Routing
// hashes the typed key columns (vector.HashRows — no per-row rendering) and
// assigns bucket hash%buckets — a pure function of the key, identical in
// every band — so each band partitions from its OWN summary the moment it
// parses, with no all-band barrier (physical.Shuffle.BandRouting). The
// global plan fold (PlanGroupRouting, shared with the cluster coordinator)
// runs concurrently and gates only the merges: it hands each bucket its
// groups' ascending global first-appearance ranks, which MergeGroupBucket
// validates and tags onto the merged groups for the downstream restore pass
// (groupRestoreExchange) to interleave back into exact single-node order —
// same group order, same positional row labels.
// groupBandSummary splits a band's key summary for the two consumers of
// the summarize phase: the O(rows) ordinal table (sum) feeds only the
// band's own Partition call, while the O(distinct) stat half feeds the
// global plan fold. Partition drops sum once the band is routed — without
// the split, every band's ordinals stay pinned behind the plan future
// until end-of-scan, which alone is O(input rows) of heap on a streamed
// pass-through groupby. Partition writes sum, Plan reads stat: disjoint
// fields, so the concurrent tasks don't race.
type groupBandSummary struct {
	stat GroupBandStat
	sum  *algebra.GroupKeySummary
}

func (e *Engine) groupByShuffle(spec expr.GroupBySpec) *physical.Shuffle {
	spec.Sorted = false // hashing per bucket; sortedness is a single-node optimization
	nb := e.bands
	return &physical.Shuffle{
		Name:        "groupby",
		Buckets:     nb,
		BandRouting: true,
		Summarize: func(_ int, band *core.DataFrame) (any, error) {
			sum, err := algebra.SummarizeGroupKeys(band, spec.Keys)
			if err != nil {
				return nil, err
			}
			counts := make([]int64, len(sum.Hashes))
			for _, d := range sum.Ordinals {
				counts[d]++
			}
			return &groupBandSummary{
				stat: GroupBandStat{Hashes: sum.Hashes, Exemplars: sum.Exemplars, Counts: counts},
				sum:  sum,
			}, nil
		},
		Plan: func(summaries []any, _ []*partition.Frame) (any, error) {
			// Folding the band summaries in band order reproduces the
			// single-node scan's first-appearance order.
			stats := make([]*GroupBandStat, len(summaries))
			for r, s := range summaries {
				stats[r] = &s.(*groupBandSummary).stat
			}
			return PlanGroupRouting(stats, nb, e.statsOn), nil
		},
		Partition: func(_ int, df *core.DataFrame, plan any) ([]*core.DataFrame, error) {
			// Band routing: plan is this band's own key summary, nothing
			// global. hash%nb routes a key identically wherever it appears.
			gs := plan.(*groupBandSummary)
			sum := gs.sum
			gs.sum = nil // free the ordinals; only stat stays live for the plan fold
			return RouteGroupBand(df, sum, spec, nb)
		},
		Merge: func(bucket int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			return mergeGroupBucket(e.pool, pieces, spec, plan.(*GroupRouting), bucket)
		},
	}
}

// groupRestoreExchange interleaves the merged groupby buckets back into
// global first-appearance group order. Each multi-bucket merge tagged its
// groups with their global ranks (GroupRankCol, always the last column); a
// single-bucket shuffle needs no repair and passes through. The k-way rank
// merge itself is RestoreGroupOrder (distrib.go), shared with the cluster
// coordinator.
func (e *Engine) groupRestoreExchange(node *algebra.GroupBy, shuffled *physical.Node) *physical.Node {
	asLabels := node.Spec.AsLabels
	return exchangeStage("groupby-restore", shuffled.Shuffle.Desc, func(in []*partition.Frame) (*partition.Frame, error) {
		if in[0].RowBands() == 1 {
			// One bucket: MergeGroupBucket already produced final order and
			// labels, with no rank column to strip.
			return in[0], nil
		}
		frames, ranks, err := splitOrdColumn(in[0])
		if err != nil {
			return nil, err
		}
		out, err := RestoreGroupOrder(frames, ranks, asLabels)
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
// probe side's bands pass through unshuffled (preserving left row order
// exactly), while the build side is resolved once by the plan task and
// broadcast to every per-band probe merge. Band b's join lands as soon as
// band b's input and the build side exist — other probe bands may still be
// computing.
func (e *Engine) joinProbeShuffle(node *algebra.Join) *physical.Shuffle {
	return &physical.Shuffle{
		Name: "join",
		Plan: func(_ []any, sides []*partition.Frame) (any, error) {
			return sides[0].ToFrame()
		},
		Merge: func(_ int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			band, err := pieces[0].Frame()
			if err != nil {
				return nil, err
			}
			return algebra.JoinFrames(band, plan.(*core.DataFrame), node.Kind, node.On, node.OnLabels)
		},
	}
}

// renumberShuffle resets row labels to one global positional sequence. It
// is an anchored shuffle with a PREFIX plan: band b's offset is the sum of
// the row counts of bands [0, b), so band b's relabel waits only on
// earlier bands — band 0 relabels the moment its own probe lands, and a
// data-column join keeps streaming through the relabel instead of
// barriering on its slowest band.
func (e *Engine) renumberShuffle() *physical.Shuffle {
	return &physical.Shuffle{
		Name: "renumber",
		Summarize: func(_ int, band *core.DataFrame) (any, error) {
			return band.NRows(), nil
		},
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
