package modin

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// This file lowers inner/left data-column joins to a KEY-SHUFFLED hash join
// when the build side is too large to broadcast: both inputs shuffle by
// join-key hash into the same buckets, each bucket builds its slice of the
// right side exactly once and probes its slice of the left, and a restore
// exchange puts the probe rows back into left input order. The broadcast
// probe (shuffle.go) rebuilds the FULL right-side table once per left band;
// the shuffled form builds each right row into exactly one bucket table, so
// total build work drops from bands× to 1× — the win the planner is sizing
// when it compares the build estimate against the broadcast limit.

// joinChoice is one join's physical strategy decision plus the build-side
// estimate that drove it (Explain renders it).
type joinChoice struct {
	shuffled  bool
	buildRows float64 // estimated build-side (right) rows
}

// chooseJoinStrategy picks broadcast vs key-shuffled for an inner/left
// data-column join. Shuffling needs at least two bands (one bucket would
// just be a slower broadcast) and a build side above the broadcast limit.
// The build size is optimizer.EstimateNode's: exact for a base frame, the
// zero-stats model above one. Both strategies produce the same cells.
func (e *Engine) chooseJoinStrategy(node *algebra.Join) joinChoice {
	if node.Kind != expr.JoinInner && node.Kind != expr.JoinLeft {
		return joinChoice{}
	}
	if node.OnLabels || len(node.On) == 0 {
		return joinChoice{}
	}
	c := joinChoice{buildRows: optimizer.EstimateNode(node.Right).Rows}
	c.shuffled = e.bands >= 2 && c.buildRows > float64(e.broadcastLimit)
	return c
}

// keyBuckets routes df's rows to hash buckets: bucket index lists in input
// order, one per bucket, and the band to cut them from — df with the key
// columns the hash just resolved swapped in typed.
func keyBuckets(df *core.DataFrame, on []string, nb int) (*core.DataFrame, [][]int, error) {
	hs, err := algebra.RowKeyHashes(df, on)
	if err != nil {
		return nil, nil, err
	}
	idx := make([][]int, nb)
	for i, h := range hs {
		b := int(h % uint64(nb))
		idx[b] = append(idx[b], i)
	}
	return df.Resolved(), idx, nil
}

// joinBuildShuffle shuffles the build (right) side by join-key hash: band r
// routes each row to bucket hash%nb, and bucket b's merge stacks its pieces
// into the one frame the probe stage will build a hash table over. Pieces
// are materialized with TakeRows (not views) so the merge concatenation and
// the downstream table build stay on typed storage.
func (e *Engine) joinBuildShuffle(on []string) *physical.Shuffle {
	nb := e.bands
	return &physical.Shuffle{
		Name:    "join-build",
		Buckets: nb,
		Partition: func(_ int, df *core.DataFrame, _ any) ([]*core.DataFrame, error) {
			df, idx, err := keyBuckets(df, on, nb)
			if err != nil {
				return nil, err
			}
			pieces := make([]*core.DataFrame, nb)
			for b := range pieces {
				pieces[b] = df.TakeRows(idx[b])
			}
			return pieces, nil
		},
		Merge: func(_ int, pieces []physical.Piece, _ any) (*core.DataFrame, error) {
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			return algebra.VStackFrames(frames...)
		},
	}
}

// joinProbePlan is the probe shuffle's routing state: each probe band's
// global row offset (for order-restoring ordinals) and each bucket's built
// right-side frame.
type joinProbePlan struct {
	offsets []int
	builds  []*core.DataFrame
}

// joinOrdCol carries the probe rows' left-input ordinals through the
// shuffle, as the last column of every routed piece and merged bucket; the
// merge and the restore exchange consume (and drop) it positionally, so a
// colliding user column name is harmless.
const joinOrdCol = "__join_ord__"

// joinProbeShuffleKeyed shuffles the probe (left) side by the same key hash
// and joins each bucket against its built right slice: BuildJoinTable once
// per bucket, typed probe in routed-row order, then the standard join
// assembly. Every routed row carries its left row's global ordinal, and every
// output row inherits it, so the restore exchange can reproduce exact left
// input order (and with it the broadcast path's output exactly).
func (e *Engine) joinProbeShuffleKeyed(node *algebra.Join) *physical.Shuffle {
	nb := e.bands
	on, kind := node.On, node.Kind
	withOrds := func(df *core.DataFrame, ords []int64) (*core.DataFrame, error) {
		return df.AppendColumn(types.String(joinOrdCol), vector.NewInt(ords, nil), types.Int)
	}
	return &physical.Shuffle{
		Name:    "join-probe",
		Buckets: nb,
		Summarize: func(_ int, band *core.DataFrame) (any, error) {
			return band.NRows(), nil
		},
		Plan: func(summaries []any, sides []*partition.Frame) (any, error) {
			p := &joinProbePlan{offsets: make([]int, len(summaries))}
			off := 0
			for r, s := range summaries {
				p.offsets[r] = off
				off += s.(int)
			}
			built := sides[0]
			if built.RowBands() != nb {
				return nil, fmt.Errorf("modin: join build produced %d buckets, want %d", built.RowBands(), nb)
			}
			p.builds = make([]*core.DataFrame, nb)
			for b := range p.builds {
				df, err := built.RowBand(b)
				if err != nil {
					return nil, err
				}
				p.builds[b] = df
			}
			return p, nil
		},
		Partition: func(band int, df *core.DataFrame, plan any) ([]*core.DataFrame, error) {
			df, idx, err := keyBuckets(df, on, nb)
			if err != nil {
				return nil, err
			}
			base := int64(plan.(*joinProbePlan).offsets[band])
			pieces := make([]*core.DataFrame, nb)
			for b := range pieces {
				ords := make([]int64, len(idx[b]))
				for k, i := range idx[b] {
					ords[k] = base + int64(i)
				}
				if pieces[b], err = withOrds(df.TakeRows(idx[b]), ords); err != nil {
					return nil, err
				}
			}
			return pieces, nil
		},
		Merge: func(bucket int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			// Bands stack in band order and each band's ordinals ascend, so
			// the bucket's concatenated ordinals are globally ascending —
			// the invariant the restore merge relies on.
			left, err := algebra.VStackFrames(frames...)
			if err != nil {
				return nil, err
			}
			j := left.NCols() - 1
			ords := ordColumn(left.TypedCol(j))
			left = left.DropColumn(j)
			table, err := algebra.BuildJoinTable(plan.(*joinProbePlan).builds[bucket], on)
			if err != nil {
				return nil, err
			}
			leftIdx, rightIdx, err := table.Probe(left, on, kind, nil, nil)
			if err != nil {
				return nil, err
			}
			out, err := algebra.AssembleJoin(left, table.Right(), on, false, leftIdx, rightIdx)
			if err != nil {
				return nil, err
			}
			ordOut := make([]int64, len(leftIdx))
			for k, i := range leftIdx {
				ordOut[k] = ords[i]
			}
			return withOrds(out, ordOut)
		},
	}
}

// joinRestoreExchange puts the shuffled probe output back into left input
// order. Each bucket's rows carry ascending left ordinals, one left row's
// matches live contiguously in exactly one bucket, and ordinals are unique
// per left row — so the k-way ordinal merge over the nb buckets
// (restoreOrder) reproduces the exact row order (and positional labels) the
// broadcast path would have produced.
func (e *Engine) joinRestoreExchange(desc string, probe *physical.Node) *physical.Node {
	return exchangeStage("join-restore", desc, func(in []*partition.Frame) (*partition.Frame, error) {
		bands, ords, err := splitOrdColumn(in[0])
		if err != nil {
			return nil, err
		}
		out, err := restoreOrder(bands, ords)
		if err != nil {
			return nil, err
		}
		if out, err = out.WithRowLabels(vector.Range(0, out.NRows())); err != nil {
			return nil, err
		}
		return e.rePartition(out), nil
	}, probe)
}
