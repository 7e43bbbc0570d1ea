package algebra

import (
	"fmt"

	"repro/internal/core"
)

// Eval applies the single operator n to its inputs, which are already
// materialized and passed in Children() order. It is the one statement of
// every operator's single-node meaning: the eager engine evaluates whole
// plans with it, and MODIN runs each operator it cannot partition through it
// over the gathered inputs. A leaf takes no inputs: a Source passes its frame
// through, a Scan reads whole. A wrong input count or an unknown node is an
// error, never a panic.
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
