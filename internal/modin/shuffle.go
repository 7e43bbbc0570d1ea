package modin

import (
	"cmp"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/vector"
)

// This file builds the engine's shuffle stages: the two-phase
// partition→route→merge lowerings of GROUPBY (key shuffle, routed by key
// hash with no summary or plan, its order restored from row positions) and
// — in sort.go — SORT (range shuffle), and the anchored passes that route
// nothing: inner/left JOIN (probe of one shared hash table), the relabel
// pass behind its renumber and FROMLABELS, bounded WINDOWs and LIMIT. Each
// produces one independent output-band future per band, so downstream fused
// stages start as soon as the band that feeds them lands.

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
	return e.exchangeStage("groupby-restore", shuffled.Shuffle.Desc, func(in []*partition.Frame) (*partition.Frame, error) {
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

// relabelShuffle resets row labels to one global positional sequence after
// applying fn (when set) to each band. It is an anchored shuffle over a
// prefix reach: band b's offset is the row count of bands 0…b−1, so band b
// waits only on earlier bands — band 0 relabels the moment its own input
// lands, and the pass streams instead of barriering on its slowest band.
// A data-column join renumbers through it, and FROMLABELS moves each band's
// labels into a column first.
func relabelShuffle(name string, fn func(*core.DataFrame) (*core.DataFrame, error)) *physical.Shuffle {
	return &physical.Shuffle{
		Name:  name,
		Reach: physical.ReachPrefix,
		Merge: func(b int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			off := 0
			for _, df := range frames[:b] {
				off += df.NRows()
			}
			df := frames[b]
			if fn != nil {
				if df, err = fn(df); err != nil {
					return nil, err
				}
			}
			return df.WithRowLabels(vector.Range(int64(off), df.NRows()))
		},
	}
}

// windowShuffle lowers a bounded WINDOW (shift, diff, rolling) to an
// anchored shuffle. A row reads k rows back in the window's scan order, or
// k rows ahead for a negative shift or diff, and Reverse flips the scan
// order; so band b reads the bands before it (prefix reach) or after it
// (suffix reach), takes the k nearest rows from as many of them as hold
// them, runs the window over the extended band and keeps its own rows.
func windowShuffle(spec expr.WindowSpec) *physical.Shuffle {
	k := max(spec.Size-1, 0)
	if spec.Kind != expr.WindowRolling {
		k = cmp.Or(spec.Offset, 1)
	}
	ahead := (k < 0) != spec.Reverse
	k = max(k, -k)
	reach := physical.ReachPrefix
	if ahead {
		reach = physical.ReachSuffix
	}
	return &physical.Shuffle{
		Name:  "window",
		Reach: reach,
		Merge: func(_ int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			// The band itself, then its neighbours nearest first.
			at, step := len(pieces)-1, -1
			if ahead {
				at, step = 0, 1
			}
			own, err := pieces[at].Frame()
			if err != nil {
				return nil, err
			}
			ext, lead := []*core.DataFrame{own}, 0
			for i := at + step; lead < k && i >= 0 && i < len(pieces); i += step {
				nb, err := pieces[i].Frame()
				if err != nil {
					return nil, err
				}
				take := min(k-lead, nb.NRows())
				if ahead {
					ext = append(ext, nb.SliceRows(0, take))
				} else {
					ext = append([]*core.DataFrame{nb.SliceRows(nb.NRows()-take, nb.NRows())}, ext...)
				}
				lead += take
			}
			band, err := algebra.VStackFrames(ext...)
			if err != nil {
				return nil, err
			}
			out, err := algebra.WindowFrame(band, spec)
			if err != nil {
				return nil, err
			}
			if ahead {
				return out.SliceRows(0, own.NRows()), nil
			}
			return out.SliceRows(lead, out.NRows()), nil
		},
	}
}

// limitShuffle lowers LIMIT to an anchored pass that keeps its input's band
// count. A head (n ≥ 0) is a prefix pass: band b keeps the rows of its band
// that fall inside the first n, after the rows of bands 0…b−1. A tail
// (n < 0) is a suffix pass counting the rows of the bands after b. A band
// that keeps no rows is empty and detached, so it pins none of its input's
// storage.
func limitShuffle(n int) *physical.Shuffle {
	reach, k := physical.ReachPrefix, n
	if n < 0 {
		reach, k = physical.ReachSuffix, -n
	}
	return &physical.Shuffle{
		Name:  "limit",
		Reach: reach,
		Merge: func(_ int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			own, others := frames[len(frames)-1], frames[:len(frames)-1]
			if n < 0 {
				own, others = frames[0], frames[1:]
			}
			left := k
			for _, df := range others {
				left -= df.NRows()
			}
			keep := min(max(left, 0), own.NRows())
			switch {
			case keep == 0:
				return own.SliceRows(0, 0).Detach(), nil
			case n < 0:
				return own.SliceRows(own.NRows()-keep, own.NRows()), nil
			}
			return own.SliceRows(0, keep), nil
		},
	}
}
