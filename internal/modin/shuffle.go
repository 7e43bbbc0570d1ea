package modin

import (
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
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
		Partition: func(_ int, df *core.DataFrame, plan any) ([]any, error) {
			// Band routing: plan is this band's own key summary, nothing
			// global. hash%nb routes a key identically wherever it appears.
			gs := plan.(*groupBandSummary)
			sum := gs.sum
			gs.sum = nil // free the ordinals; only stat stays live for the plan fold
			views, err := RouteGroupBand(df, sum, spec, nb)
			if err != nil {
				return nil, err
			}
			pieces := make([]any, nb)
			for b, v := range views {
				pieces[b] = v
			}
			return pieces, nil
		},
		Merge: func(bucket int, pieces []any, plan any) (*core.DataFrame, error) {
			// Pieces may arrive deferred (PieceSource) under a spill budget;
			// the fold resolves each one at consumption.
			return mergeGroupBucketPieces(e.pool, pieces, spec, plan.(*GroupRouting), bucket)
		},
	}
}

// groupRestoreExchange interleaves the merged groupby buckets back into
// global first-appearance group order. Each multi-bucket merge tagged its
// groups with their global ranks (GroupRankCol, always the last column); a
// single-bucket shuffle needs no repair and passes through. The k-way rank
// merge itself is RestoreGroupOrder (distrib.go), shared with the cluster
// coordinator.
// desc is resolved lazily — the description string is only rendered when a
// restore actually fails, not on every compile.
func (e *Engine) groupRestoreExchange(spec expr.GroupBySpec, desc func() string, shuffled *physical.Node) *physical.Node {
	asLabels := spec.AsLabels
	run := func(in []*partition.Frame) (*partition.Frame, error) {
		f := in[0]
		nb := f.RowBands()
		if nb == 1 {
			// One bucket: MergeGroupBucket already produced final order and
			// labels, with no rank column to strip.
			return f, nil
		}
		frames := make([]*core.DataFrame, nb)
		ranks := make([][]int64, nb)
		for b := 0; b < nb; b++ {
			df, err := f.RowBand(b)
			if err != nil {
				return nil, err
			}
			j := df.NCols() - 1
			ranks[b] = ordColumn(df.TypedCol(j))
			frames[b] = df.DropColumn(j)
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
	}
	wrapped := func(in []*partition.Frame) (*partition.Frame, error) {
		out, err := run(in)
		if err != nil {
			return nil, describeErr(desc(), err)
		}
		return out, nil
	}
	return physical.NewExchange("groupby-restore", wrapped, shuffled)
}

// mergeGroupPieces folds one bucket's routed pieces into its grouped frame.
// When every piece is already resident, dict-coded keys short-circuit to
// the typed code-indexed kernel (algebra.DictGroupFrames — the pieces are
// views over band slices of one shared category table, so the direct-code
// path applies); deferred (PieceSource) pieces instead resolve one at a
// time as the fold consumes them, so a spilled bucket never re-materializes
// whole. A bucket flagged heavy splits its pieces into contiguous chunks,
// builds a group partial per chunk in parallel, and recombines in chunk
// order — GroupPartial.Merge appends the right side's new groups after the
// left's, so the chunked fold reproduces the sequential first-appearance
// group order exactly.
func mergeGroupPieces(pool *exec.Pool, pieces []any, spec expr.GroupBySpec, heavy bool) (*core.DataFrame, error) {
	if frames, eager := eagerFrames(pieces); eager {
		if out, ok, err := algebra.DictGroupFrames(frames, spec); ok || err != nil {
			return out, err
		}
	}
	if heavy && len(pieces) > 1 {
		chunks := pool.Workers()
		if chunks > len(pieces) {
			chunks = len(pieces)
		}
		if chunks < 2 {
			chunks = 2
		}
		cuts := bandCuts(len(pieces), chunks)
		partials, err := exec.MapParallel(pool, chunks, func(c int) (*algebra.GroupPartial, error) {
			g := algebra.NewGroupPartial(spec)
			for _, p := range pieces[cuts[c]:cuts[c+1]] {
				f, err := pieceFrame(p)
				if err != nil {
					return nil, err
				}
				if err := g.AddFrame(f); err != nil {
					return nil, err
				}
			}
			return g, nil
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
	g := algebra.NewGroupPartial(spec)
	for _, p := range pieces {
		f, err := pieceFrame(p)
		if err != nil {
			return nil, err
		}
		if err := g.AddFrame(f); err != nil {
			return nil, err
		}
	}
	return g.Finalize()
}

// eagerFrames unwraps pieces when every one is already a resident frame —
// the gate for whole-bucket kernels like the dict short-circuit.
func eagerFrames(pieces []any) ([]*core.DataFrame, bool) {
	frames := make([]*core.DataFrame, len(pieces))
	for i, p := range pieces {
		f, ok := p.(*core.DataFrame)
		if !ok {
			return nil, false
		}
		frames[i] = f
	}
	return frames, true
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
		Merge: func(_ int, pieces []any, plan any) (*core.DataFrame, error) {
			return algebra.JoinFrames(pieces[0].(*core.DataFrame), plan.(*core.DataFrame),
				node.Kind, node.On, node.OnLabels)
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
		Merge: func(_ int, pieces []any, plan any) (*core.DataFrame, error) {
			df := pieces[0].(*core.DataFrame)
			return df.WithRowLabels(vector.Range(int64(plan.(int)), df.NRows()))
		},
	}
}
