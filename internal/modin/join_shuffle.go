package modin

import (
	"fmt"
	"slices"

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
// when the build side is too large to broadcast. Only keys and row
// positions cross bands; each output row is materialized once:
//
//   - join-build: right band r routes its key columns to bucket hash%nb,
//     each routed row labelled with its global right position;
//   - join-probe: left band r routes its key columns the same way, labelled
//     with global left ordinals; bucket b builds one JoinTable over its
//     build keys, probes it with its left keys, and emits (left ordinal,
//     right position) pairs in ascending ordinal order;
//   - join-assemble: an anchored stage over the left bands, with the pair
//     buckets and the right input as side inputs. Band b merges its
//     ordinal run out of every bucket and calls AssembleJoin once over
//     left band b and the right input, so output band b lines up with left
//     band b and the bands assemble in parallel.
//
// The broadcast probe (shuffle.go) rebuilds the FULL right-side table once
// per left band; the shuffled form builds each right key into exactly one
// bucket table, so total build work drops from bands× to 1× — the win the
// planner is sizing when it compares the build estimate against the
// broadcast limit. Both produce the same cells, labels and domains.

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

// keyShuffledJoin wires the three stages over the compiled inputs. Both
// inputs are read twice — routed by key, then assembled from — so neither
// may be a single-use stream whose bands are released once routed.
func (e *Engine) keyShuffledJoin(node *algebra.Join, left, right *physical.Node) *physical.Node {
	desc := node.Describe()
	build := e.joinBuildShuffle(node.On)
	probe := e.joinPairShuffle(node)
	assemble := e.joinAssembly(node)
	build.Desc, probe.Desc, assemble.Desc = desc, desc, desc
	left, right = sharedInput(left), sharedInput(right)
	built := physical.NewShuffle(build, right)
	pairs := physical.NewShuffle(probe, left, built)
	return physical.NewShuffle(assemble, left, pairs, right)
}

// sharedInput returns a compiled join input whose bands outlive their first
// consumer: a single-use stream is re-marked shared, as a scan read by two
// operators is, so its bands stay resident until the assembly reads them.
func sharedInput(n *physical.Node) *physical.Node {
	if n.Stream == nil || !n.Stream.SingleUse {
		return n
	}
	st := *n.Stream
	st.SingleUse = false
	return physical.NewStreamSource(&st)
}

// bandOffsets folds per-band row-count summaries into each band's first
// global row.
func bandOffsets(summaries []any) []int {
	offsets := make([]int, len(summaries))
	off := 0
	for r, s := range summaries {
		offsets[r] = off
		off += s.(int)
	}
	return offsets
}

// bandRows is the row-count summary behind bandOffsets and the renumber
// pass.
func bandRows(_ int, band *core.DataFrame) (any, error) { return band.NRows(), nil }

// routeKeys cuts band's key columns into nb hash-bucket pieces, in band row
// order. A piece's row labels are its rows' global positions in their input
// (base plus the band row), so the rest of the row never travels.
func routeKeys(band *core.DataFrame, on []string, nb, base int) ([]*core.DataFrame, error) {
	hs, err := algebra.RowKeyHashes(band, on)
	if err != nil {
		return nil, err
	}
	counts := make([]int, nb)
	for i, h := range hs {
		hs[i] = h % uint64(nb) // the row's bucket, from here on
		counts[hs[i]]++
	}
	idx := make([][]int, nb) // one backing array, cut to the bucket sizes
	backing := make([]int, len(hs))
	for b := range idx {
		idx[b], backing = backing[:0:counts[b]], backing[counts[b]:]
	}
	for i, b := range hs {
		idx[b] = append(idx[b], i)
	}
	keys := make([]vector.Vector, len(on))
	labels := make([]types.Value, len(on))
	domains := make([]types.Domain, len(on))
	for k, name := range on {
		j := band.ColIndex(name) // RowKeyHashes found every key
		keys[k], labels[k], domains[k] = band.TypedCol(j), types.String(name), band.Domain(j)
	}
	pieces := make([]*core.DataFrame, nb)
	for b, rows := range idx {
		cols := make([]vector.Vector, len(keys))
		for k, key := range keys {
			cols[k] = key.Take(rows)
		}
		pos := make([]int64, len(rows))
		for k, i := range rows {
			pos[k] = int64(base + i)
		}
		if pieces[b], err = core.Build(cols, vector.NewInt(pos, nil), labels, domains, nil); err != nil {
			return nil, err
		}
	}
	return pieces, nil
}

// joinBuildShuffle routes the build (right) side's keys by hash: bucket b's
// merge stacks its pieces, in band order, into the key frame the probe
// builds its table over — positions ascending, so a key's build rows chain
// in right input order.
func (e *Engine) joinBuildShuffle(on []string) *physical.Shuffle {
	nb := e.bands
	return &physical.Shuffle{
		Name:      "join-build",
		Buckets:   nb,
		Summarize: bandRows,
		Plan: func(summaries []any, _ []*partition.Frame) (any, error) {
			return bandOffsets(summaries), nil
		},
		Partition: func(band int, df *core.DataFrame, plan any) ([]*core.DataFrame, error) {
			return routeKeys(df, on, nb, plan.([]int)[band])
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

// joinProbePlan is the probe shuffle's routing state: each left band's
// global row offset and each bucket's build keys.
type joinProbePlan struct {
	offsets []int
	builds  []*core.DataFrame
}

// joinPairShuffle routes the probe (left) side's keys by the same hash and
// joins each bucket's keys against its build keys. Its output band b is
// bucket b's pairs: one Int column of right positions (-1 for an unmatched
// left-join row), labelled with the left ordinals. Bands stack in band
// order and each band's ordinals ascend, so a bucket's ordinals ascend, and
// a left row's matches sit together, in right input order.
func (e *Engine) joinPairShuffle(node *algebra.Join) *physical.Shuffle {
	nb := e.bands
	on, kind := node.On, node.Kind
	return &physical.Shuffle{
		Name:      "join-probe",
		Buckets:   nb,
		Summarize: bandRows,
		Plan: func(summaries []any, sides []*partition.Frame) (any, error) {
			built := sides[0]
			if built.RowBands() != nb {
				return nil, fmt.Errorf("modin: join build produced %d buckets, want %d", built.RowBands(), nb)
			}
			p := &joinProbePlan{offsets: bandOffsets(summaries), builds: make([]*core.DataFrame, nb)}
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
			return routeKeys(df, on, nb, plan.(*joinProbePlan).offsets[band])
		},
		Merge: func(bucket int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			frames, err := physical.Frames(pieces)
			if err != nil {
				return nil, err
			}
			left, err := algebra.VStackFrames(frames...)
			if err != nil {
				return nil, err
			}
			build := plan.(*joinProbePlan).builds[bucket]
			table, err := algebra.BuildJoinTable(build, on)
			if err != nil {
				return nil, err
			}
			leftIdx, rightIdx, err := table.Probe(left, on, kind, nil, nil)
			if err != nil {
				return nil, err
			}
			lord, rpos := ordColumn(left.RowLabels()), ordColumn(build.RowLabels())
			ords := make([]int64, len(leftIdx))
			pos := make([]int64, len(leftIdx))
			for k, i := range leftIdx {
				ords[k], pos[k] = lord[i], -1
				if r := rightIdx[k]; r >= 0 {
					pos[k] = rpos[r]
				}
			}
			return core.Build([]vector.Vector{vector.NewInt(pos, nil)}, vector.NewInt(ords, nil),
				[]types.Value{types.String("right")}, []types.Domain{types.Int}, nil)
		},
	}
}

// joinAssemblyPlan is the assembly's shared state: each left band's global
// row offset, every bucket's pairs, and the right input, gathered once.
type joinAssemblyPlan struct {
	offsets []int
	ords    [][]int64 // bucket → ascending left ordinals
	pos     [][]int64 // bucket → right positions, -1 for none
	right   *core.DataFrame
}

// joinAssembly is the anchored stage that materializes the join. Output
// band b takes, from every bucket, the run of pairs whose left ordinals
// fall in left band b (a binary search, since a bucket's ordinals ascend),
// merges the runs by ordinal into left input order, and assembles the band
// with one AssembleJoin call. Its row labels start at the number of pairs
// before band b — the positional labels the broadcast plan's renumber pass
// gives.
func (e *Engine) joinAssembly(node *algebra.Join) *physical.Shuffle {
	on := node.On
	return &physical.Shuffle{
		Name:      "join-assemble",
		Summarize: bandRows,
		Plan: func(summaries []any, sides []*partition.Frame) (any, error) {
			pairs := sides[0]
			p := &joinAssemblyPlan{
				offsets: bandOffsets(summaries),
				ords:    make([][]int64, pairs.RowBands()),
				pos:     make([][]int64, pairs.RowBands()),
			}
			for b := range p.ords {
				df, err := pairs.RowBand(b)
				if err != nil {
					return nil, err
				}
				p.ords[b], p.pos[b] = ordColumn(df.RowLabels()), ordColumn(df.Col(0))
			}
			var err error
			p.right, err = sides[1].ToFrame()
			return p, err
		},
		Merge: func(band int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			left, err := pieces[0].Frame()
			if err != nil {
				return nil, err
			}
			p := plan.(*joinAssemblyPlan)
			lo := int64(p.offsets[band])
			hi := lo + int64(left.NRows())
			runs := make([][]int64, len(p.ords))
			pos := make([][]int64, len(p.ords))
			before, n := 0, 0
			for b, ords := range p.ords {
				i, _ := slices.BinarySearch(ords, lo)
				j, _ := slices.BinarySearch(ords[i:], hi)
				runs[b], pos[b] = ords[i:i+j], p.pos[b][i:i+j]
				before += i
				n += j
			}
			leftIdx := make([]int, 0, n)
			rightIdx := make([]int, 0, n)
			mergeOrdinals(runs, func(b, from, to int) {
				for i := from; i < to; i++ {
					leftIdx = append(leftIdx, int(runs[b][i]-lo))
					rightIdx = append(rightIdx, int(pos[b][i]))
				}
			})
			out, err := algebra.AssembleJoin(left, p.right, on, false, leftIdx, rightIdx)
			if err != nil {
				return nil, err
			}
			return out.WithRowLabels(vector.Range(int64(before), out.NRows()))
		},
	}
}
