package modin

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/schema"
)

// Compile lowers a logical plan into a physical stage DAG (Section 3.3's
// decoupling of the algebra from the execution layer):
//
//   - Embarrassingly-parallel unary operators (SELECTION, PROJECTION, MAP,
//     RENAME, TOLABELS, and TOPK's per-band pass) become kernels, and
//     consecutive kernels over a single-use input fuse into ONE stage —
//     one task per band, no inter-operator barrier.
//   - The hot repartition points (GROUPBY, SORT, inner/left JOIN) become
//     shuffle stages: a two-phase partition→route→merge lowering where each
//     output band is its own future, so downstream fused stages start as
//     soon as the band that feeds them lands (shuffle.go, sort.go).
//   - Shape-opaque repartition points (TRANSPOSE, WINDOW, UNION,
//     DIFFERENCE, outer JOIN, ...) stay exchange stages: explicit DAG
//     dependencies on every input block, one coordinating task.
//
// Shared sub-plans (a statement referencing an earlier handle twice)
// compile to shared physical nodes, scheduled once; fusion never crosses a
// shared edge, so no kernel runs twice.
func (e *Engine) Compile(n algebra.Node) (*physical.Node, error) {
	c := &compiler{
		e:    e,
		uses: make(map[algebra.Node]int),
		memo: make(map[algebra.Node]*physical.Node),
	}
	if n == nil {
		return nil, fmt.Errorf("modin: nil plan")
	}
	countUses(n, c.uses)
	return c.compile(n)
}

// countUses tallies how many parents reference each sub-plan; fusion onto a
// stage is only legal when its algebra node has exactly one consumer.
func countUses(n algebra.Node, uses map[algebra.Node]int) {
	uses[n]++
	if uses[n] > 1 {
		return // children already counted via the first visit
	}
	for _, child := range n.Children() {
		countUses(child, uses)
	}
}

type compiler struct {
	e    *Engine
	uses map[algebra.Node]int
	memo map[algebra.Node]*physical.Node
}

func (c *compiler) compile(n algebra.Node) (*physical.Node, error) {
	if p, ok := c.memo[n]; ok {
		return p, nil
	}
	p, err := c.lower(n)
	if err != nil {
		return nil, err
	}
	c.memo[n] = p
	return p, nil
}

// cachedCursor attaches a fresh schema cache to every parsed band, so the
// band's fused kernel chain memoizes lazy type induction the same way a
// whole-frame scan did.
type cachedCursor struct{ *core.CSVCursor }

func (c cachedCursor) NextBand(maxRows int) (*core.DataFrame, error) {
	df, err := c.CSVCursor.NextBand(maxRows)
	if err != nil {
		return df, err
	}
	return df.WithCache(schema.NewCache()), nil
}

// streamScan lowers a scan leaf to a morsel-driven stream stage: bands parse
// incrementally on the stage's producer, and (via fuse below) the stage
// absorbs the downstream kernel chain. A non-nil keep is a PROJECTION
// directly over the scan, answered by the cursor itself: dropped columns
// are never transposed into vectors. singleUse lets a downstream
// spill-aware shuffle release each band once routed.
func (c *compiler) streamScan(scan *algebra.Scan, keep []string, singleUse bool) *physical.Node {
	return physical.NewStreamSource(&physical.StreamSource{
		Name: describeScan(scan, keep),
		Open: func() (physical.StreamCursor, error) {
			cur, err := scan.Cursor()
			if err != nil {
				return nil, err
			}
			cur.Keep(keep)
			return cachedCursor{cur}, nil
		},
		BandRows:  scan.BandRows,
		SizeHint:  scan.SizeHint,
		SingleUse: singleUse,
	})
}

// prunedScan returns the scan a PROJECTION reads when the scan's cursor can
// answer the projection: the scan has no other consumer, and every projected
// label is in its probed header (an unknown label keeps failing in the
// projection kernel, with that kernel's text). Otherwise nil.
func prunedScan(p *algebra.Projection, uses map[algebra.Node]int) *algebra.Scan {
	scan, ok := p.Input.(*algebra.Scan)
	if !ok || uses[scan] != 1 || len(p.Cols) == 0 {
		return nil
	}
	for _, name := range p.Cols {
		if !slices.Contains(scan.Columns, name) {
			return nil
		}
	}
	return scan
}

// describeScan names a stream stage: the scan, and how many of its columns
// the cursor materializes when a projection sank into it — so a plan or an
// error says whether a scan ran wide.
func describeScan(scan *algebra.Scan, keep []string) string {
	if keep == nil {
		return scan.Describe()
	}
	return fmt.Sprintf("%s keep %d/%d", scan.Describe(), len(keep), len(scan.Columns))
}

// fuse appends a kernel implementing node n to the compiled input,
// extending the input's fused stage in place when it is a fused stage with
// a single consumer, and opening a new fused stage otherwise. The kernel
// carries n's description, which the scheduler puts in front of its
// failures (the physical layer itself only knows the kernel's short name).
func (c *compiler) fuse(n algebra.Node, input algebra.Node, k physical.Kernel) (*physical.Node, error) {
	in, err := c.compile(input)
	if err != nil {
		return nil, err
	}
	k.Desc = n.Describe()
	if in.Stream != nil && c.uses[input] == 1 {
		// Kernels over a single-use streamed scan fuse INTO the stream
		// stage: each band runs scan→filter→... as one task the moment it
		// parses, so a selective chain discards rows morsel by morsel and
		// the raw scan output never accumulates.
		return physical.FuseStream(in, k), nil
	}
	if len(in.Kernels) > 0 && c.uses[input] == 1 {
		return in.Fuse(k), nil
	}
	return physical.NewFused(in, k), nil
}

// compileAll compiles each input in order.
func (c *compiler) compileAll(inputs []algebra.Node) ([]*physical.Node, error) {
	compiled := make([]*physical.Node, len(inputs))
	for i, in := range inputs {
		p, err := c.compile(in)
		if err != nil {
			return nil, err
		}
		compiled[i] = p
	}
	return compiled, nil
}

// exchangeStage is physical.NewExchange carrying the logical operator's
// description.
func exchangeStage(name, desc string, run func([]*partition.Frame) (*partition.Frame, error), inputs ...*physical.Node) *physical.Node {
	n := physical.NewExchange(name, run, inputs...)
	n.Exchange.Desc = desc
	return n
}

// exchange compiles the inputs and wraps run as a barrier stage
// implementing node n.
func (c *compiler) exchange(n algebra.Node, name string, run func([]*partition.Frame) (*partition.Frame, error), inputs ...algebra.Node) (*physical.Node, error) {
	compiled, err := c.compileAll(inputs)
	if err != nil {
		return nil, err
	}
	return exchangeStage(name, n.Describe(), run, compiled...), nil
}

// shuffleStage compiles the shuffled input (and whole-frame side inputs)
// and wraps sh as a two-phase shuffle stage implementing node n.
func (c *compiler) shuffleStage(n algebra.Node, sh *physical.Shuffle, input algebra.Node, sides ...algebra.Node) (*physical.Node, error) {
	compiled, err := c.compileAll(append([]algebra.Node{input}, sides...))
	if err != nil {
		return nil, err
	}
	sh.Desc = n.Describe()
	return physical.NewShuffle(sh, compiled[0], compiled[1:]...), nil
}

// wholeFrame adapts a gather-then-kernel operator (one that must see the
// full dataframe) into an exchange, re-partitioning its result.
func (c *compiler) wholeFrame(n algebra.Node, name string, fn func(*core.DataFrame) (*core.DataFrame, error), input algebra.Node) (*physical.Node, error) {
	e := c.e
	return c.exchange(n, name, func(in []*partition.Frame) (*partition.Frame, error) {
		df, err := gather(in[0])
		if err != nil {
			return nil, err
		}
		out, err := fn(df)
		if err != nil {
			return nil, err
		}
		return e.rePartition(out), nil
	}, input)
}

func (c *compiler) lower(n algebra.Node) (*physical.Node, error) {
	e := c.e
	switch node := n.(type) {
	case *algebra.Source:
		// Attach whatever statistics the planner collected for this base
		// frame, so exchanges downstream can merge and re-expose them.
		pf := partition.New(node.DF, partition.Rows, e.bands)
		pf.SetStats(e.cachedStats(node.DF))
		return physical.NewSource(pf), nil

	case *algebra.Scan:
		return c.streamScan(node, nil, c.uses[node] <= 1), nil

	case *algebra.Selection:
		if node.Where != nil {
			where := node.Where
			return c.fuse(node, node.Input, physical.Kernel{
				Name: "selection",
				// View output: consecutive filters in one fused chain
				// narrow a single selection vector over shared base
				// storage; the stage exit compacts once.
				Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
					return algebra.SelectWhereView(b, where)
				},
			})
		}
		pred := node.Pred
		return c.fuse(node, node.Input, physical.Kernel{
			Name: "selection",
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.SelectRows(b, pred), nil
			},
		})

	case *algebra.Projection:
		if scan := prunedScan(node, c.uses); scan != nil {
			return c.streamScan(scan, node.Cols, c.uses[node] <= 1), nil
		}
		cols := node.Cols
		return c.fuse(node, node.Input, physical.Kernel{
			Name: "projection",
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.Project(b, cols)
			},
		})

	case *algebra.Map:
		fn := node.Fn
		return c.fuse(node, node.Input, physical.Kernel{
			Name: "map(" + fn.Name + ")",
			// Elementwise MAPs are partitioning-agnostic and may run per
			// block; row UDFs need full-width bands.
			Elementwise: fn.Elementwise != nil,
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.MapFrame(b, fn)
			},
		})

	case *algebra.Rename:
		mapping := node.Mapping
		return c.fuse(node, node.Input, physical.Kernel{
			Name: "rename",
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.RenameFrame(b, mapping)
			},
		})

	case *algebra.ToLabels:
		col := node.Col
		return c.fuse(node, node.Input, physical.Kernel{
			Name: "tolabels",
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.ToLabelsFrame(b, col)
			},
		})

	case *algebra.TopK:
		// Per-band top-k fuses into the upstream chain: each band keeps at
		// most |k| rows, so the final exchange touches k×bands rows instead
		// of the full input.
		order, k := node.Order, node.N
		partial, err := c.fuse(node, node.Input, physical.Kernel{
			Name: "topk-partial",
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.TopKFrame(b, order, k)
			},
		})
		if err != nil {
			return nil, err
		}
		return exchangeStage("topk-merge", node.Describe(), func(in []*partition.Frame) (*partition.Frame, error) {
			df, err := gather(in[0])
			if err != nil {
				return nil, err
			}
			out, err := algebra.TopKFrame(df, order, k)
			if err != nil {
				return nil, err
			}
			return e.rePartition(out), nil
		}, partial), nil

	case *algebra.GroupBy:
		// Band-routed key shuffle (each band partitions from its own
		// summary, no all-band barrier) plus a restore pass that interleaves
		// the merged buckets back into global first-appearance order.
		shuffled, err := c.shuffleStage(node, e.groupByShuffle(node.Spec), node.Input)
		if err != nil {
			return nil, err
		}
		return e.groupRestoreExchange(node, shuffled), nil

	case *algebra.Window:
		spec := node.Spec
		return c.exchange(node, "window", func(in []*partition.Frame) (*partition.Frame, error) {
			return e.executeWindow(spec, in[0])
		}, node.Input)

	case *algebra.Sort:
		return c.shuffleStage(node, e.sortShuffle(node), node.Input)

	case *algebra.Transpose:
		schema := node.Schema
		return c.exchange(node, "transpose", func(in []*partition.Frame) (*partition.Frame, error) {
			return e.executeTranspose(schema, in[0])
		}, node.Input)

	case *algebra.Join:
		if node.Kind == expr.JoinInner || node.Kind == expr.JoinLeft {
			if c.e.chooseJoinStrategy(node).shuffled {
				// Key-shuffled hash join (join_shuffle.go): statistics say
				// the build side is too large to broadcast, so both inputs
				// shuffle by key hash, each bucket builds once and probes
				// its slice, and a restore exchange re-establishes left
				// input order.
				sides, err := c.compileAll([]algebra.Node{node.Left, node.Right})
				if err != nil {
					return nil, err
				}
				build, probe := e.joinBuildShuffle(node.On), e.joinProbeShuffleKeyed(node)
				build.Desc = node.Describe()
				probe.Desc = build.Desc
				built := physical.NewShuffle(build, sides[1])
				return e.joinRestoreExchange(probe.Desc, physical.NewShuffle(probe, sides[0], built)), nil
			}
			// Anchored broadcast probe: left bands pass through in order,
			// the right side is built once and broadcast; band b's join
			// lands independently of the other bands.
			probe, err := c.shuffleStage(node, e.joinProbeShuffle(node), node.Left, node.Right)
			if err != nil {
				return nil, err
			}
			if node.OnLabels {
				return probe, nil
			}
			// Data-column joins reset row labels to one global positional
			// sequence; the renumber pass is itself an anchored shuffle
			// (only band counts cross bands), so the join's output bands
			// stay independent futures.
			renumber := e.renumberShuffle()
			renumber.Desc = probe.Shuffle.Desc
			return physical.NewShuffle(renumber, probe), nil
		}
		return c.exchange(node, "join", func(in []*partition.Frame) (*partition.Frame, error) {
			return e.executeJoinGather(node, in[0], in[1])
		}, node.Left, node.Right)

	case *algebra.Union:
		return c.exchange(node, "union", func(in []*partition.Frame) (*partition.Frame, error) {
			left, err := gather(in[0])
			if err != nil {
				return nil, err
			}
			right, err := gather(in[1])
			if err != nil {
				return nil, err
			}
			out, err := algebra.UnionFrames(left, right)
			if err != nil {
				return nil, err
			}
			// A union of two summarized frames is itself summarized: rows
			// add, ranges widen, sketches union (partition.MergeStats).
			return e.rePartition(out).SetStats(partition.MergeStats(in[0], in[1])), nil
		}, node.Left, node.Right)

	case *algebra.Difference:
		return c.exchange(node, "difference", func(in []*partition.Frame) (*partition.Frame, error) {
			left, err := gather(in[0])
			if err != nil {
				return nil, err
			}
			right, err := gather(in[1])
			if err != nil {
				return nil, err
			}
			out, err := algebra.DifferenceFrames(left, right)
			if err != nil {
				return nil, err
			}
			return e.rePartition(out), nil
		}, node.Left, node.Right)

	case *algebra.FromLabels:
		// FROMLABELS resets row labels to global positional notation,
		// which spans partitions; run on the gathered frame.
		label := node.Label
		return c.wholeFrame(node, "fromlabels", func(df *core.DataFrame) (*core.DataFrame, error) {
			return algebra.FromLabelsFrame(df, label)
		}, node.Input)

	case *algebra.DropDuplicates:
		subset := node.Subset
		return c.wholeFrame(node, "dropduplicates", func(df *core.DataFrame) (*core.DataFrame, error) {
			return algebra.DropDuplicatesFrame(df, subset)
		}, node.Input)

	case *algebra.Induce:
		// Induction over blocks would mis-type columns that only full
		// data determines; gather first.
		return c.wholeFrame(node, "induce", func(df *core.DataFrame) (*core.DataFrame, error) {
			return algebra.InduceFrame(df), nil
		}, node.Input)

	case *algebra.Limit:
		// Prefix/suffix views only need the boundary partitions
		// (Section 6.1.2): untouched bands are never gathered.
		k := node.N
		return c.exchange(node, "limit", func(in []*partition.Frame) (*partition.Frame, error) {
			return e.limitPartitioned(in[0], k)
		}, node.Input)

	default:
		return nil, fmt.Errorf("modin: unknown plan node %T", n)
	}
}
