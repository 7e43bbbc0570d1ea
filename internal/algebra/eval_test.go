package algebra_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
)

// kernel calls the named kernel that implements n over its materialized
// inputs: the oracle Eval is checked against.
func kernel(n algebra.Node, in []*core.DataFrame) (*core.DataFrame, error) {
	switch node := n.(type) {
	case *algebra.Source:
		return node.DF, nil
	case *algebra.Scan:
		return node.ReadAll()
	case *algebra.Selection:
		if node.Where == nil {
			return algebra.SelectRows(in[0], node.Pred), nil
		}
		return algebra.SelectWhere(in[0], node.Where)
	case *algebra.Projection:
		return algebra.Project(in[0], node.Cols)
	case *algebra.Union:
		return algebra.UnionFrames(in[0], in[1])
	case *algebra.Difference:
		return algebra.DifferenceFrames(in[0], in[1])
	case *algebra.Join:
		return algebra.JoinFrames(in[0], in[1], node.Kind, node.On, node.OnLabels)
	case *algebra.DropDuplicates:
		return algebra.DropDuplicatesFrame(in[0], node.Subset)
	case *algebra.GroupBy:
		return algebra.GroupByFrame(in[0], node.Spec)
	case *algebra.Sort:
		return algebra.SortFrame(in[0], node.Order, node.ByLabels)
	case *algebra.Rename:
		return algebra.RenameFrame(in[0], node.Mapping)
	case *algebra.Window:
		return algebra.WindowFrame(in[0], node.Spec)
	case *algebra.Transpose:
		return algebra.TransposeFrame(in[0], node.Schema)
	case *algebra.Map:
		return algebra.MapFrame(in[0], node.Fn)
	case *algebra.ToLabels:
		return algebra.ToLabelsFrame(in[0], node.Col)
	case *algebra.FromLabels:
		return algebra.FromLabelsFrame(in[0], node.Label)
	case *algebra.Induce:
		return algebra.InduceFrame(in[0]), nil
	case *algebra.TopK:
		return algebra.TopKFrame(in[0], node.Order, node.N)
	case *algebra.Limit:
		return algebra.LimitFrame(in[0], node.N), nil
	}
	return nil, fmt.Errorf("no kernel for %T", n)
}

// unknownNode is a plan node no evaluator knows.
type unknownNode struct{}

func (unknownNode) Children() []algebra.Node { return nil }
func (unknownNode) Describe() string         { return "UNKNOWN" }

// TestEvalCoversEveryOperator: at every node of every codec case — plus the
// two closure-carrying kinds the codec refuses — Eval over the node's
// materialized inputs is the operator's named kernel called directly. A
// wrong input count and an unknown node are errors, not panics.
func TestEvalCoversEveryOperator(t *testing.T) {
	src := &algebra.Source{DF: codecFrame(), Name: "src"}
	cases := append(codecCases(),
		codecCase{"map", &algebra.Map{Input: src, Fn: algebra.IsNullFn()}},
		codecCase{"pred selection", &algebra.Selection{Input: src, Pred: expr.ColEquals("s", codecFrame().Value(0, 2))}},
	)
	eng := eager.New()
	kinds := make(map[string]bool)
	for _, tc := range cases {
		algebra.Walk(tc.plan, func(n algebra.Node) {
			kinds[fmt.Sprintf("%T", n)] = true
			kids := n.Children()
			in := make([]*core.DataFrame, len(kids))
			for i, kid := range kids {
				df, err := eng.Execute(kid)
				if err != nil {
					t.Fatalf("%s: input %s: %v", tc.name, kid.Describe(), err)
				}
				in[i] = df
			}
			got, err := algebra.Eval(n, in...)
			if err != nil {
				t.Fatalf("%s: Eval %s: %v", tc.name, n.Describe(), err)
			}
			want, err := kernel(n, in)
			if err != nil {
				t.Fatalf("%s: kernel %s: %v", tc.name, n.Describe(), err)
			}
			if !got.Equal(want) {
				t.Errorf("%s: Eval %s computes\n%s\nwant\n%s", tc.name, n.Describe(), got, want)
			}
		})
	}
	if len(kinds) != 19 {
		t.Errorf("covered %d node kinds, want all 19: %v", len(kinds), kinds)
	}

	df := codecFrame()
	for name, call := range map[string]func() (*core.DataFrame, error){
		"leaf with an input":    func() (*core.DataFrame, error) { return algebra.Eval(src, df) },
		"unary without input":   func() (*core.DataFrame, error) { return algebra.Eval(&algebra.Induce{Input: src}) },
		"binary with one input": func() (*core.DataFrame, error) { return algebra.Eval(&algebra.Union{Left: src, Right: src}, df) },
		"unknown node":          func() (*core.DataFrame, error) { return algebra.Eval(unknownNode{}, df) },
		"nil node":              func() (*core.DataFrame, error) { return algebra.Eval(nil, df) },
	} {
		if out, err := call(); err == nil {
			t.Errorf("%s: evaluated to\n%s", name, out)
		}
	}
}
