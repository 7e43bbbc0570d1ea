package algebra

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Eval applies the single operator n to its inputs, which are already
// materialized and passed in Children() order. It is the one statement of
// every operator's single-node meaning: EvalPlan walks whole plans with it
// (the eager engine, and MODIN on small in-memory inputs), and MODIN runs
// each operator it cannot partition through it over the gathered inputs. A
// leaf takes no inputs: a Source passes its frame through, a Scan reads
// whole. A wrong input count or an unknown node is an error, never a panic.
func Eval(n Node, in ...*core.DataFrame) (*core.DataFrame, error) {
	if want := arity(n); len(in) != want {
		return nil, fmt.Errorf("algebra: %T takes %d inputs, got %d", n, want, len(in))
	}
	switch node := n.(type) {
	case *Source:
		return node.DF, nil
	case *Scan:
		return node.ReadAll()
	case *Selection:
		if node.Where != nil {
			return SelectWhere(in[0], node.Where)
		}
		return SelectRows(in[0], node.Pred), nil
	case *Projection:
		return Project(in[0], node.Cols)
	case *Union:
		return UnionFrames(in[0], in[1])
	case *Difference:
		return DifferenceFrames(in[0], in[1])
	case *Join:
		return JoinFrames(in[0], in[1], node.Kind, node.On, node.OnLabels)
	case *DropDuplicates:
		return DropDuplicatesFrame(in[0], node.Subset)
	case *GroupBy:
		return GroupByFrame(in[0], node.Spec)
	case *Sort:
		return SortFrame(in[0], node.Order, node.ByLabels)
	case *Rename:
		return RenameFrame(in[0], node.Mapping)
	case *Window:
		return WindowFrame(in[0], node.Spec)
	case *Transpose:
		return TransposeFrame(in[0], node.Schema)
	case *Map:
		return MapFrame(in[0], node.Fn)
	case *ToLabels:
		return ToLabelsFrame(in[0], node.Col)
	case *FromLabels:
		return FromLabelsFrame(in[0], node.Label)
	case *Induce:
		return InduceFrame(in[0]), nil
	case *TopK:
		return TopKFrame(in[0], node.Order, node.N)
	case *Limit:
		return LimitFrame(in[0], node.N), nil
	}
	return nil, fmt.Errorf("algebra: unknown plan node %T", n)
}

// EvalPlan evaluates a whole plan on the calling goroutine, bottom-up,
// materializing every intermediate: an operator's inputs run first, left to
// right, then check (when non-nil) sees the operator and its inputs, then
// Eval applies it. A sub-plan with more than one parent is evaluated once,
// by node identity, and its result shared. An Eval failure carries the
// failing operator's description in front of it, so a chained plan's error
// says where in the chain it arose; a check's failure is returned as the
// check wrote it.
func EvalPlan(n Node, check func(Node, []*core.DataFrame) error) (*core.DataFrame, error) {
	if n == nil {
		return nil, errors.New("algebra: nil plan")
	}
	w := &planWalk{check: check, uses: Uses(n)}
	return w.eval(n)
}

// planWalk is one EvalPlan: its check, each node's parent count, and the
// results of the shared nodes evaluated so far.
type planWalk struct {
	check  func(Node, []*core.DataFrame) error
	uses   map[Node]int
	shared map[Node]*core.DataFrame
}

func (w *planWalk) eval(n Node) (*core.DataFrame, error) {
	if out, ok := w.shared[n]; ok {
		return out, nil
	}
	kids := n.Children()
	in := make([]*core.DataFrame, len(kids))
	for i, kid := range kids {
		df, err := w.eval(kid)
		if err != nil {
			return nil, err
		}
		in[i] = df
	}
	if w.check != nil {
		if err := w.check(n, in); err != nil {
			return nil, err
		}
	}
	out, err := Eval(n, in...)
	if err != nil {
		// Input errors returned above are already annotated, so each
		// failure carries exactly one operator prefix.
		return nil, fmt.Errorf("%s: %w", n.Describe(), err)
	}
	if w.uses[n] > 1 {
		if w.shared == nil {
			w.shared = make(map[Node]*core.DataFrame)
		}
		w.shared[n] = out
	}
	return out, nil
}

// Uses counts how many parents reference each node of the plan rooted at n
// (the root counts one). A node reached through several parents is one
// shared sub-plan: an engine evaluates it once.
func Uses(n Node) map[Node]int {
	uses := make(map[Node]int)
	countUses(n, uses)
	return uses
}

func countUses(n Node, uses map[Node]int) {
	uses[n]++
	if uses[n] > 1 {
		return // its inputs were counted on the first visit
	}
	for _, child := range n.Children() {
		countUses(child, uses)
	}
}

// arity is the number of inputs Eval takes for n: none for a leaf, two for
// the binary operators, one otherwise.
func arity(n Node) int {
	switch n.(type) {
	case *Source, *Scan:
		return 0
	case *Union, *Difference, *Join:
		return 2
	}
	return 1
}
