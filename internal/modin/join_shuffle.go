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
// positions cross bands; each output row is materialized once. A position
// is band<<32 | row, as the groupby labels its routed rows, and both sides
// route through the groupby's router (algebra.HashRoute), so no stage needs
// a row count:
//
//   - join-build: right band r routes its key columns to bucket hash%nb,
//     each routed row labelled with its right position;
//   - join-probe: left band r routes its key columns the same way, labelled
//     with left positions; bucket b builds one JoinTable over its build
//     keys, probes it with its left keys, and emits (left position, right
//     position) pairs in ascending left position order;
//   - join-assemble: an anchored stage over the left bands, with the pair
//     buckets and the right input as side inputs. Band b merges the pairs
//     whose left positions fall in band b out of every bucket and calls
//     AssembleJoin once over left band b and the right input, so output
//     band b lines up with left band b and the bands assemble in parallel.
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

// routeKeys cuts band's key columns into nb hash-bucket pieces, in band row
// order, as algebra.HashRoute assigns them. A piece's row labels are its
// rows' positions, so the rest of the row never travels. The keys are
// taken, not viewed: a bucket's build table hashes its keys in bulk.
func routeKeys(band *core.DataFrame, on []string, nb, index int) ([]*core.DataFrame, error) {
	keys, err := algebra.KeyColumns(band, on)
	if err != nil {
		return nil, err
	}
	rows, pos := algebra.HashRoute(keys, band.NRows(), index, nb)
	labels := make([]types.Value, len(on))
	domains := make([]types.Domain, len(on))
	for k, name := range on {
		labels[k], domains[k] = types.String(name), band.Domain(band.ColIndex(name))
	}
	pieces := make([]*core.DataFrame, nb)
	for b := range pieces {
		cols := make([]vector.Vector, len(keys))
		for k, key := range keys {
			cols[k] = key.Take(rows[b])
		}
		if pieces[b], err = core.Build(cols, vector.NewInt(pos[b], nil), labels, domains, nil); err != nil {
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
		Name:    "join-build",
		Buckets: nb,
		Partition: func(band int, df *core.DataFrame, _ any) ([]*core.DataFrame, error) {
			return routeKeys(df, on, nb, band)
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

// joinPairShuffle routes the probe (left) side's keys by the same hash and
// joins each bucket's keys against its build keys. Its output band b is
// bucket b's pairs: one Int column of right positions (-1 for an unmatched
// left-join row), labelled with the left positions. Bands stack in band
// order and each band's positions ascend, so a bucket's left positions
// ascend, and a left row's matches sit together, in right input order.
func (e *Engine) joinPairShuffle(node *algebra.Join) *physical.Shuffle {
	nb := e.bands
	on, kind := node.On, node.Kind
	return &physical.Shuffle{
		Name:    "join-probe",
		Buckets: nb,
		Plan: func(_ []any, sides []*partition.Frame) (any, error) {
			built := sides[0]
			if built.RowBands() != nb {
				return nil, fmt.Errorf("modin: join build produced %d buckets, want %d", built.RowBands(), nb)
			}
			builds := make([]*core.DataFrame, nb)
			for b := range builds {
				df, err := built.RowBand(b)
				if err != nil {
					return nil, err
				}
				builds[b] = df
			}
			return builds, nil
		},
		Partition: func(band int, df *core.DataFrame, _ any) ([]*core.DataFrame, error) {
			return routeKeys(df, on, nb, band)
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
			build := plan.([]*core.DataFrame)[bucket]
			table, err := algebra.BuildJoinTable(build, on)
			if err != nil {
				return nil, err
			}
			leftIdx, rightIdx, err := table.Probe(left, on, kind, nil, nil)
			if err != nil {
				return nil, err
			}
			lpos, rpos := ordColumn(left.RowLabels()), ordColumn(build.RowLabels())
			ords := make([]int64, len(leftIdx))
			pos := make([]int64, len(leftIdx))
			for k, i := range leftIdx {
				ords[k], pos[k] = lpos[i], -1
				if r := rightIdx[k]; r >= 0 {
					pos[k] = rpos[r]
				}
			}
			return core.Build([]vector.Vector{vector.NewInt(pos, nil)}, vector.NewInt(ords, nil),
				[]types.Value{types.String("right")}, []types.Domain{types.Int}, nil)
		},
	}
}

// joinAssemblyPlan is the assembly's shared state: every bucket's pairs,
// the right input, gathered once, and each right band's first row in it.
type joinAssemblyPlan struct {
	ords   [][]int64 // bucket → ascending left positions
	pos    [][]int64 // bucket → right positions, -1 for none
	right  *core.DataFrame
	starts []int64 // right band → its first row in right
}

// joinAssembly is the anchored stage that materializes the join. Output
// band b takes, from every bucket, the run of pairs whose left positions
// fall in band b, [b<<32, (b+1)<<32) (a binary search, since a bucket's
// left positions ascend), merges the runs into left input order, and
// assembles the band with one AssembleJoin call; a right position indexes
// the gathered right input through its band's first row. The band's row
// labels start at the number of pairs before band b — the positional
// labels the broadcast plan's renumber pass gives.
func (e *Engine) joinAssembly(node *algebra.Join) *physical.Shuffle {
	on := node.On
	return &physical.Shuffle{
		Name: "join-assemble",
		Plan: func(_ []any, sides []*partition.Frame) (any, error) {
			pairs, right := sides[0], sides[1]
			p := &joinAssemblyPlan{
				ords:   make([][]int64, pairs.RowBands()),
				pos:    make([][]int64, pairs.RowBands()),
				starts: make([]int64, right.RowBands()),
			}
			for b := range p.ords {
				df, err := pairs.RowBand(b)
				if err != nil {
					return nil, err
				}
				p.ords[b], p.pos[b] = ordColumn(df.RowLabels()), ordColumn(df.Col(0))
			}
			var err error
			if p.right, err = right.ToFrame(); err != nil {
				return nil, err
			}
			for r := 1; r < len(p.starts); r++ {
				p.starts[r] = p.starts[r-1] + int64(right.Block(r-1, 0).NRows())
			}
			return p, nil
		},
		Merge: func(band int, pieces []physical.Piece, plan any) (*core.DataFrame, error) {
			left, err := pieces[0].Frame()
			if err != nil {
				return nil, err
			}
			p := plan.(*joinAssemblyPlan)
			lo := int64(band) << 32
			runs := make([][]int64, len(p.ords))
			pos := make([][]int64, len(p.ords))
			before, n := 0, 0
			for b, ords := range p.ords {
				i, _ := slices.BinarySearch(ords, lo)
				j, _ := slices.BinarySearch(ords[i:], lo+1<<32)
				runs[b], pos[b] = ords[i:i+j], p.pos[b][i:i+j]
				before += i
				n += j
			}
			leftIdx := make([]int, 0, n)
			rightIdx := make([]int, 0, n)
			mergeOrdinals(runs, func(b, from, to int) {
				for i := from; i < to; i++ {
					leftIdx = append(leftIdx, int(runs[b][i]-lo))
					r := pos[b][i]
					if r >= 0 {
						r = p.starts[r>>32] + r&(1<<32-1)
					}
					rightIdx = append(rightIdx, int(r))
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
