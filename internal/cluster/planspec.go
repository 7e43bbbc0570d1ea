package cluster

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/physical"
)

// Plan shipping. Go closures cannot cross a process boundary, so the
// distributable plan family is the closure-free subset the streaming
// engine fuses anyway: a linear chain
//
//	(Scan | Source) → {Selection(Where) | Projection | Rename}* →
//	  [GroupBy | Sort] → {Selection(Where) | Projection | Rename}*
//
// shipped as the plan itself, in its one binary form (algebra.EncodePlan);
// a worker binds the plan's one leaf to each band it runs. Coordinator and
// worker cut the plan with the same cutPlan, and both run its chains through
// the compiler's own band kernels (modin.BandKernel). Everything else —
// opaque predicates, Map closures, joins, unions, windows, composite
// aggregates — runs on the coordinator's in-process engine instead (the
// Scheduler's fallback), which keeps the df surface complete while the hot
// streaming shapes distribute.

// PlanSpec is a shipped plan: the plan's scan leaf (nil for frame sources,
// whose bands ship as blocks), the shuffle's global bucket count (one per
// worker of the attempt; group bands use it to route themselves by key hash
// without waiting for any fold), and the encoded plan. It rides each band
// owner's RunBands request.
type PlanSpec struct {
	Scan    *algebra.Scan
	Buckets int
	Plan    []byte
}

// stagePlan is a distributable plan cut at its one shuffle: the leaf (on a
// worker, a placeholder), the per-band chain below the shuffle, the shuffle
// (at most one of group and sort), and the chain applied to the merged
// buckets. Without a shuffle the whole chain is the per-band stage. The Sort node is the plan's own; the shared
// modin helpers read only its Order and ByLabels.
type stagePlan struct {
	leaf  algebra.Node // *algebra.Scan or *algebra.Source
	keep  []string     // a projection on the scan, answered by the band reader
	pre   []physical.Kernel
	group *expr.GroupBySpec
	sort  *algebra.Sort
	post  []physical.Kernel
}

// cutPlan cuts n at its shuffle. A non-empty reason means the plan falls
// outside the distributable family; the reason names the first
// disqualifying operator (the string the scheduler's fallback stats and
// Explain surface, so "why didn't this distribute?" has an answer). The
// coordinator cuts a query's plan to decide whether it ships; a worker cuts
// the plan it decoded to run it.
func cutPlan(n algebra.Node) (*stagePlan, string) {
	p := &stagePlan{}
	var chain []physical.Kernel // collected root first
	var above algebra.Node      // cur's consumer
	for cur := n; p.leaf == nil; {
		if algebra.Opaque(cur) {
			return nil, "opaque closure"
		}
		switch node := cur.(type) {
		case *algebra.Selection, *algebra.Projection, *algebra.Rename:
			k, _ := modin.BandKernel(node)
			chain = append(chain, k)
		case *algebra.GroupBy:
			if p.group != nil || p.sort != nil { // at most one shuffle
				return nil, "double-shuffle"
			}
			// Collect produces Composite cells, which have no wire form.
			for _, a := range node.Spec.Aggs {
				if a.Agg == expr.AggCollect {
					return nil, "composite aggregate"
				}
			}
			p.group, p.post, chain = &node.Spec, chain, nil
		case *algebra.Sort:
			if p.group != nil || p.sort != nil {
				return nil, "double-shuffle"
			}
			p.sort, p.post, chain = node, chain, nil
		case *algebra.Scan:
			if !shippableScan(node) {
				return nil, "unshippable scan"
			}
			p.leaf = node
			// A projection the local stream would sink into the scan's
			// reader sinks into the worker's: its kernel, the last one
			// collected, is dropped for the kept columns.
			if proj, ok := above.(*algebra.Projection); ok && modin.PrunedScan(proj, algebra.Uses(n)) != nil {
				p.keep, chain = proj.Cols, chain[:len(chain)-1]
			}
		case *algebra.Source:
			p.leaf = node
		case *algebra.Join:
			return nil, "join"
		case *algebra.Window:
			return nil, "window"
		case *algebra.Union:
			return nil, "union"
		default:
			return nil, "unshippable operator"
		}
		if p.leaf == nil {
			above, cur = cur, cur.Children()[0]
		}
	}
	// Execution runs leaf first.
	slices.Reverse(chain)
	slices.Reverse(p.post)
	p.pre = chain
	return p, ""
}

// workerPlan is a query's plan on a worker: the spec as shipped and its
// decoded cut.
type workerPlan struct {
	PlanSpec
	*stagePlan
}

// preparePlan is the worker's decode path: it decodes the shipped plan,
// binding its leaf to the shipped scan, or for a frame source to a
// placeholder (each band replaces it), and cuts it the way the coordinator
// did. A malformed plan is an error, answered in-band.
func preparePlan(spec PlanSpec) (*workerPlan, error) {
	var leaf algebra.Node = &algebra.Source{DF: core.Empty()}
	if spec.Scan != nil {
		leaf = spec.Scan
	}
	n, err := algebra.DecodePlan(spec.Plan, []algebra.Node{leaf})
	if err != nil {
		return nil, err
	}
	cut, reason := cutPlan(n)
	if reason != "" {
		return nil, fmt.Errorf("cluster: shipped plan does not distribute (%s)", reason)
	}
	if (cut.group != nil || cut.sort != nil) && spec.Buckets <= 0 {
		return nil, fmt.Errorf("cluster: shuffle plan shipped without a bucket count")
	}
	return &workerPlan{spec, cut}, nil
}

// shippableScan reports whether a scan leaf can ship: it has a re-openable
// path or inline bytes, a single-byte delimiter, and a probed header (the
// worker names parsed columns from the shipped labels).
func shippableScan(node *algebra.Scan) bool {
	return node.Options.Comma < 0x80 && !node.Options.InduceNow && node.Options.Header && len(node.Columns) > 0 &&
		(node.Path != "" || node.Data != nil)
}
