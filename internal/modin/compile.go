package modin

import (
	"fmt"
	"io"
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
//   - The hot repartition points (GROUPBY, SORT) become shuffle stages: a
//     two-phase partition→route→merge lowering where each output band is
//     its own future, so downstream fused stages start as soon as the band
//     that feeds them lands (shuffle.go, sort.go).
//   - The ordered passes (inner/left JOIN's probe and renumber, FROMLABELS,
//     bounded WINDOWs, LIMIT) become anchored shuffles: no row is routed,
//     and output band b's merge reads input band b plus, under a prefix or
//     suffix reach, the bands before or after it.
//   - TRANSPOSE is an exchange stage that gathers nothing: it depends on
//     every input band and transposes each band on its own, in parallel,
//     its output one band of the band transposes side by side.
//   - Every other operator (UNION, DIFFERENCE, outer and cross JOIN,
//     DROP-DUPLICATES, INDUCE, expanding WINDOW, TOPK's merge) is one gather
//     exchange: gather the inputs, apply algebra.Eval — the eager engine's
//     evaluator — and re-partition the result.
//
// Every exchange hands its output on as the engine's band count, so each
// stage's bands are known when the plan is scheduled.
//
// Shared sub-plans (a statement referencing an earlier handle twice)
// compile to shared physical nodes, scheduled once; fusion never crosses a
// shared edge, so no kernel runs twice.
func (e *Engine) Compile(n algebra.Node) (*physical.Node, error) {
	if n == nil {
		return nil, fmt.Errorf("modin: nil plan")
	}
	c := &compiler{
		e:    e,
		uses: algebra.Uses(n),
		memo: make(map[algebra.Node]*physical.Node),
	}
	return c.compile(n)
}

type compiler struct {
	e *Engine
	// uses counts each sub-plan's parents: fusion onto a stage is only
	// legal when its algebra node has exactly one consumer.
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

// streamScan lowers a scan leaf to a morsel-driven stream stage: the input
// is cut into exact bands when the stage is scheduled, each band parses in
// its own task, and (via fuse below) the stage absorbs the downstream
// kernel chain. A non-nil keep is a PROJECTION directly over the scan,
// answered by the band reader itself: dropped columns are never transposed
// into vectors. singleUse lets a downstream spill-aware shuffle release each
// band once routed.
func (c *compiler) streamScan(scan *algebra.Scan, keep []string, singleUse bool) *physical.Node {
	return physical.NewStreamSource(&physical.StreamSource{
		Name:      describeScan(scan, keep),
		Open:      func() ([]physical.Band, io.Closer, error) { return scanBands(scan, keep) },
		SingleUse: singleUse,
	})
}

// scanBands opens the scan's input once and cuts it into its bands; each
// band reads its own byte range, with a fresh schema cache so the band's
// fused kernel chain memoizes lazy type induction. An input without
// records is one band, the zero-row band.
func scanBands(scan *algebra.Scan, keep []string) ([]physical.Band, io.Closer, error) {
	cols := scan.Columns
	if cols == nil {
		var err error
		if cols, err = scan.Probe(); err != nil {
			return nil, nil, err
		}
	}
	in, ranges, err := scan.Bands()
	if err != nil {
		return nil, nil, err
	}
	if len(ranges) == 0 {
		ranges = []core.BandRange{{}}
	}
	bands := make([]physical.Band, len(ranges))
	for i, rng := range ranges {
		bands[i] = func() (*core.DataFrame, error) {
			band, err := in.ReadBand(rng, scan.Options, cols, keep)
			if err != nil {
				return nil, err
			}
			return band.WithCache(schema.NewCache()), nil
		}
	}
	return bands, in, nil
}

// PrunedScan returns the scan a PROJECTION reads when the scan's band
// reader can answer the projection: the scan has no other consumer, and
// every projected label is in its probed header (an unknown label keeps
// failing in the projection kernel, with that kernel's text). Otherwise nil.
// The local stream and a cluster worker both prune by it.
func PrunedScan(p *algebra.Projection, uses map[algebra.Node]int) *algebra.Scan {
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

// fuse appends kernel k to the compiled input, extending the input's fused
// stage in place when it is a fused stage with a single consumer, and
// opening a new fused stage otherwise.
func (c *compiler) fuse(input algebra.Node, k physical.Kernel) (*physical.Node, error) {
	in, err := c.compile(input)
	if err != nil {
		return nil, err
	}
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

// BandKernel returns the per-band kernel implementing n when n is an
// embarrassingly-parallel unary operator (SELECTION, PROJECTION, MAP,
// RENAME, TOLABELS). The compiler fuses it into a stage, and a cluster
// worker runs the same kernel over its bands, so a distributed chain is the
// local fused chain. The kernel carries n's description, which the
// scheduler puts in front of its failures (the physical layer itself only
// knows the kernel's short name).
func BandKernel(n algebra.Node) (physical.Kernel, bool) {
	var k physical.Kernel
	switch node := n.(type) {
	case *algebra.Selection:
		where, pred := node.Where, node.Pred
		k = physical.Kernel{Name: "selection", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			if where == nil {
				return algebra.SelectRows(b, pred), nil
			}
			// View output: consecutive filters in one fused chain narrow a
			// single selection vector over shared base storage; the stage
			// exit compacts once.
			return algebra.SelectWhereView(b, where)
		}}
	case *algebra.Projection:
		cols := node.Cols
		k = physical.Kernel{Name: "projection", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			return algebra.Project(b, cols)
		}}
	case *algebra.Map:
		fn := node.Fn
		k = physical.Kernel{Name: "map(" + fn.Name + ")", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			return algebra.MapFrame(b, fn)
		}}
	case *algebra.Rename:
		mapping := node.Mapping
		k = physical.Kernel{Name: "rename", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			return algebra.RenameFrame(b, mapping)
		}}
	case *algebra.ToLabels:
		col := node.Col
		k = physical.Kernel{Name: "tolabels", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			return algebra.ToLabelsFrame(b, col)
		}}
	default:
		return physical.Kernel{}, false
	}
	k.Desc = n.Describe()
	return k, true
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

// exchangeStage is physical.NewExchange handing on the engine's band count
// and carrying the logical operator's description.
func (e *Engine) exchangeStage(name, desc string, run func([]*partition.Frame) (*partition.Frame, error), inputs ...*physical.Node) *physical.Node {
	n := physical.NewExchange(name, e.bands, run, inputs...)
	n.Exchange.Desc = desc
	return n
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

// gatherStage lowers n to one gather exchange over its compiled inputs: it
// gathers each input whole, applies the operator's single-node meaning
// (algebra.Eval) and re-partitions the result.
func (c *compiler) gatherStage(n algebra.Node, name string, inputs ...*physical.Node) *physical.Node {
	e := c.e
	return e.exchangeStage(name, n.Describe(), func(in []*partition.Frame) (*partition.Frame, error) {
		dfs := make([]*core.DataFrame, len(in))
		for i, f := range in {
			df, err := f.ToFrame()
			if err != nil {
				return nil, err
			}
			dfs[i] = df
		}
		out, err := algebra.Eval(n, dfs...)
		if err != nil {
			return nil, err
		}
		return e.rePartition(out), nil
	}, inputs...)
}

func (c *compiler) lower(n algebra.Node) (*physical.Node, error) {
	e := c.e
	switch node := n.(type) {
	case *algebra.Source:
		return physical.NewSource(partition.New(node.DF, partition.Rows, e.bands)), nil

	case *algebra.Scan:
		return c.streamScan(node, nil, c.uses[node] <= 1), nil

	case *algebra.Projection:
		if scan := PrunedScan(node, c.uses); scan != nil {
			return c.streamScan(scan, node.Cols, c.uses[node] <= 1), nil
		}
	}
	if k, ok := BandKernel(n); ok {
		return c.fuse(n.Children()[0], k)
	}
	// name is set by the operators MODIN runs whole: after the switch they
	// lower to one gather exchange under that name.
	var name string
	switch node := n.(type) {
	case *algebra.TopK:
		// Per-band top-k fuses into the upstream chain: each band keeps at
		// most |k| rows, so the final exchange touches k×bands rows instead
		// of the full input.
		order, k := node.Order, node.N
		partial, err := c.fuse(node.Input, physical.Kernel{
			Name: "topk-partial",
			Desc: node.Describe(),
			Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
				return algebra.TopKFrame(b, order, k)
			},
		})
		if err != nil {
			return nil, err
		}
		return c.gatherStage(node, "topk-merge", partial), nil

	case *algebra.GroupBy:
		// Band-routed key shuffle (each band partitions the moment it
		// exists, labelling its rows with their positions; no all-band
		// barrier) plus a restore pass that interleaves the merged buckets
		// back into global first-appearance order.
		shuffled, err := c.shuffleStage(node, e.groupByShuffle(node.Spec), node.Input)
		if err != nil {
			return nil, err
		}
		return e.groupRestoreExchange(node, shuffled), nil

	case *algebra.Window:
		if node.Spec.Kind != expr.WindowExpanding {
			return c.shuffleStage(node, windowShuffle(node.Spec), node.Input)
		}
		// Every row of an expanding window reads all rows before it.
		name = "window"

	case *algebra.Sort:
		return c.shuffleStage(node, e.sortShuffle(node), node.Input)

	case *algebra.Transpose:
		in, err := c.compile(node.Input)
		if err != nil {
			return nil, err
		}
		schema := node.Schema
		return e.exchangeStage("transpose", node.Describe(), func(in []*partition.Frame) (*partition.Frame, error) {
			return e.executeTranspose(schema, in[0])
		}, in), nil

	case *algebra.Join:
		if node.Kind == expr.JoinInner || node.Kind == expr.JoinLeft {
			// Anchored probe: left bands pass through in order, the plan
			// task builds one hash table over the right side, and band b
			// probes it and lands independently of the other bands.
			probe, err := c.shuffleStage(node, e.joinProbeShuffle(node), node.Left, node.Right)
			if err != nil {
				return nil, err
			}
			if node.OnLabels {
				return probe, nil
			}
			// Data-column joins reset row labels to one global positional
			// sequence; the renumber pass is itself an anchored shuffle
			// (band b reads the row counts of the bands before it), so the
			// join's output bands stay independent futures.
			renumber := relabelShuffle("renumber", nil)
			renumber.Desc = probe.Shuffle.Desc
			return physical.NewShuffle(renumber, probe), nil
		}
		// Outer and right joins mix both inputs' rows into one order, and a
		// cross product pairs every row with every other.
		name = "join"

	case *algebra.Limit:
		// Prefix/suffix views (Section 6.1.2): band b keeps its rows inside
		// the first (or last) n, counting the bands before (or after) it.
		return c.shuffleStage(node, limitShuffle(node.N), node.Input)

	case *algebra.Union:
		name = "union"
	case *algebra.Difference:
		name = "difference"
	case *algebra.FromLabels:
		// FROMLABELS moves each band's labels into a column, then relabels
		// the band from the row count of the bands before it.
		label := node.Label
		return c.shuffleStage(node, relabelShuffle("fromlabels", func(df *core.DataFrame) (*core.DataFrame, error) {
			return algebra.FromLabelsFrame(df, label)
		}), node.Input)
	case *algebra.DropDuplicates:
		name = "dropduplicates"
	case *algebra.Induce:
		// Induction over bands would mis-type columns that only full
		// data determines.
		name = "induce"

	default:
		return nil, fmt.Errorf("modin: unknown plan node %T", n)
	}
	inputs, err := c.compileAll(n.Children())
	if err != nil {
		return nil, err
	}
	return c.gatherStage(n, name, inputs...), nil
}
