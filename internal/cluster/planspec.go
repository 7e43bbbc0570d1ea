package cluster

import (
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
)

// Plan shipping. Go closures cannot cross a process boundary, so the
// distributable plan family is the closure-free subset the streaming
// engine fuses anyway: a linear chain
//
//	(Scan | Source) → {Selection(Where) | Projection | Rename}* →
//	  [GroupBy | Sort] → {Selection(Where) | Projection | Rename}*
//
// carried in a PlanSpec whose operators are the expr specs themselves — the
// values the local compiler consumes, not copies of them. Everything else —
// opaque predicates, Map closures, joins, unions, windows, composite
// aggregates — declines extraction and runs on the coordinator's in-process
// engine instead (the Scheduler's fallback), which keeps the df surface
// complete while the hot streaming shapes distribute.

// Source kinds.
const (
	srcScanPath byte = iota // worker re-opens Path and section-reads its band
	srcScanData             // coordinator ships the input bytes in Prepare
	srcFrame                // coordinator ships each band as an inline block
)

// PlanSpec is a shipped stage plan: one source, a pre-shuffle chain, at
// most one shuffle, and a post-shuffle chain applied to merged buckets.
// Buckets is the shuffle's global bucket count (set by the coordinator to
// the live worker count before Prepare); group bands use it to route
// themselves by key hash without waiting for any fold. Sort is the plan's
// Sort node cut from its input: the shared modin helpers take the node but
// read only Order and ByLabels.
type PlanSpec struct {
	Source  SourceSpec
	Buckets int
	Pre     []OpSpec
	Group   *expr.GroupBySpec
	Sort    *algebra.Sort
	Post    []OpSpec
}

// SourceSpec describes where a band's rows come from.
type SourceSpec struct {
	Kind     byte
	Path     string   // srcScanPath
	Data     []byte   // srcScanData
	Comma    byte     // scan kinds: single-byte field delimiter
	Columns  []string // scan kinds: header column labels (nil = positional)
	BandRows int      // scan kinds: morsel size used for splitting
}

// OpSpec is one closure-free chain operator: a selection when Where is set,
// a rename when Rename is non-empty, a projection onto Cols otherwise.
type OpSpec struct {
	Where  *expr.Where
	Rename map[string]string
	Cols   []string
}

// planInfo is the coordinator-side result of extraction: the spec plus the
// typed handles the coordinator itself needs (the scan for splitting, the
// source frame for banding).
type planInfo struct {
	spec   PlanSpec
	scan   *algebra.Scan
	source *core.DataFrame
}

// extractPlan renders n into a shippable PlanSpec. A non-empty reason means
// the plan falls outside the closure-free subset; the reason names the
// first disqualifying operator (the string the scheduler's fallback stats
// and Explain surface, so "why didn't this distribute?" has an answer).
func extractPlan(n algebra.Node) (info *planInfo, reason string) {
	info = &planInfo{}
	var post, pre []OpSpec
	segment := &post
	cur := n
walk:
	for {
		switch node := cur.(type) {
		case *algebra.Selection:
			if !shippable(node.Where) {
				return nil, "opaque closure"
			}
			*segment = append(*segment, OpSpec{Where: node.Where})
			cur = node.Input
		case *algebra.Projection:
			*segment = append(*segment, OpSpec{Cols: node.Cols})
			cur = node.Input
		case *algebra.Rename:
			// An empty mapping is the identity, and gob would deliver it as
			// a nil map — indistinguishable from a projection.
			if len(node.Mapping) > 0 {
				*segment = append(*segment, OpSpec{Rename: node.Mapping})
			}
			cur = node.Input
		case *algebra.GroupBy:
			if segment == &pre { // at most one shuffle, nearest the leaf
				return nil, "double-shuffle"
			}
			// Collect produces Composite cells, which have no wire form.
			for _, a := range node.Spec.Aggs {
				if a.Agg == expr.AggCollect {
					return nil, "composite aggregate"
				}
			}
			info.spec.Group = &node.Spec
			segment = &pre
			cur = node.Input
		case *algebra.Sort:
			if segment == &pre {
				return nil, "double-shuffle"
			}
			info.spec.Sort = &algebra.Sort{Order: node.Order, ByLabels: node.ByLabels}
			segment = &pre
			cur = node.Input
		case *algebra.Scan:
			src, ok := scanSource(node)
			if !ok {
				return nil, "unshippable scan"
			}
			info.spec.Source = src
			info.scan = node
			break walk
		case *algebra.Source:
			info.spec.Source = SourceSpec{Kind: srcFrame}
			info.source = node.DF
			break walk
		case *algebra.Join:
			return nil, "join"
		case *algebra.Window:
			return nil, "window"
		case *algebra.Map:
			return nil, "opaque closure"
		case *algebra.Union:
			return nil, "union"
		default:
			return nil, "unshippable operator"
		}
	}
	// The chains were collected root-first; execution runs leaf-first.
	reverseOps(pre)
	reverseOps(post)
	info.spec.Pre = pre
	info.spec.Post = post
	if info.spec.Group == nil && info.spec.Sort == nil {
		// No shuffle: the whole chain is the per-band stage.
		info.spec.Pre = post
		info.spec.Post = nil
	}
	return info, ""
}

// shippable reports whether a selection can cross the wire: it must be
// structured (opaque predicates carry no Where) and every operand must have
// a binary form (Composite operands do not).
func shippable(w *expr.Where) bool {
	if w == nil {
		return false
	}
	for _, t := range w.Terms {
		if _, err := t.Operand.MarshalBinary(); err != nil {
			return false
		}
	}
	return true
}

// scanSource renders a scan leaf. Distributable scans have a re-openable
// path or inline bytes, a single-byte delimiter, and a probed header (the
// worker names parsed columns from the shipped labels).
func scanSource(node *algebra.Scan) (SourceSpec, bool) {
	if node.Options.Comma >= 0x80 || node.Options.InduceNow || !node.Options.Header || len(node.Columns) == 0 {
		return SourceSpec{}, false
	}
	src := SourceSpec{
		Comma:    byte(node.Options.Comma),
		Columns:  append([]string(nil), node.Columns...),
		BandRows: node.BandRows,
	}
	switch {
	case node.Path != "":
		src.Kind = srcScanPath
		src.Path = node.Path
	case node.Data != nil:
		src.Kind = srcScanData
		src.Data = node.Data
	default:
		return SourceSpec{}, false
	}
	return src, true
}

func reverseOps(ops []OpSpec) {
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
}

// applyOps runs a shipped chain over one frame through the same typed
// kernels the in-process engine fuses (SelectWhereView keeps selections
// zero-copy until the stage-exit compaction).
func applyOps(df *core.DataFrame, ops []OpSpec) (*core.DataFrame, error) {
	var err error
	for _, op := range ops {
		switch {
		case op.Where != nil:
			df, err = algebra.SelectWhereView(df, op.Where)
		case len(op.Rename) > 0:
			df, err = algebra.RenameFrame(df, op.Rename)
		default:
			df, err = algebra.Project(df, op.Cols)
		}
		if err != nil {
			return nil, err
		}
	}
	return df, nil
}
