package algebra

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
)

// Node is one operator in a logical dataframe query plan. Plans form DAGs:
// a statement's plan may reference sub-plans bound to earlier statements
// (Section 4.5, "Workflow Definitions").
type Node interface {
	// Children returns the input plans, left to right.
	Children() []Node
	// Describe renders the operator (without inputs) for plan printing.
	Describe() string
}

// Source is a leaf node: a bound dataframe.
type Source struct {
	// DF is the bound dataframe.
	DF *core.DataFrame
	// Name labels the source in plan renderings.
	Name string
}

// Children returns no inputs.
func (s *Source) Children() []Node { return nil }

// Describe renders the node.
func (s *Source) Describe() string {
	name := s.Name
	if name == "" {
		name = "df"
	}
	return fmt.Sprintf("SOURCE(%s, %dx%d)", name, s.DF.NRows(), s.DF.NCols())
}

// Selection eliminates rows, preserving input order. Exactly one of Where
// and Pred drives execution: a structured Where runs through the typed
// filter kernels (SelectWhere); an opaque Pred runs row at a time
// (SelectRows). When both are set, Where wins and Pred serves as the
// documentation-level fallback for tools that only understand predicates.
type Selection struct {
	Input Node
	// Where is the structured column-op-constant conjunction, when the
	// predicate has one.
	Where *expr.Where
	// Pred is the opaque row predicate (the fallback path).
	Pred expr.Predicate
	// Desc documents the predicate in plan renderings.
	Desc string
}

// Children returns the single input.
func (s *Selection) Children() []Node { return []Node{s.Input} }

// Describe renders the node.
func (s *Selection) Describe() string {
	if s.Desc == "" && s.Where != nil {
		return "SELECTION(" + s.Where.Describe() + ")"
	}
	return "SELECTION(" + s.Desc + ")"
}

// Projection eliminates columns, preserving both orders.
type Projection struct {
	Input Node
	// Cols are the retained column labels, in output order.
	Cols []string
}

// Children returns the single input.
func (p *Projection) Children() []Node { return []Node{p.Input} }

// Describe renders the node.
func (p *Projection) Describe() string {
	return "PROJECTION(" + strings.Join(p.Cols, ", ") + ")"
}

// Union concatenates two dataframes in order: the result is ordered by the
// left argument first, then the right (Table 1 †).
type Union struct {
	Left, Right Node
}

// Children returns both inputs.
func (u *Union) Children() []Node { return []Node{u.Left, u.Right} }

// Describe renders the node.
func (u *Union) Describe() string { return "UNION" }

// Difference returns rows of the left dataframe not present in the right,
// preserving the left order.
type Difference struct {
	Left, Right Node
}

// Children returns both inputs.
func (d *Difference) Children() []Node { return []Node{d.Left, d.Right} }

// Describe renders the node.
func (d *Difference) Describe() string { return "DIFFERENCE" }

// Join combines two dataframes by element. Kind JoinCross yields the
// ordered cross product (each left tuple associated in order with each
// right tuple).
type Join struct {
	Left, Right Node
	Kind        expr.JoinKind
	// On are the equi-join column labels shared by both sides; empty with
	// OnLabels=false and Kind=JoinCross means cross product.
	On []string
	// OnLabels joins on the row labels Rm instead of data columns, as in
	// pandas merge(left_index=True, right_index=True).
	OnLabels bool
}

// Children returns both inputs.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// Describe renders the node.
func (j *Join) Describe() string {
	if j.Kind == expr.JoinCross {
		return "CROSS-PRODUCT"
	}
	on := strings.Join(j.On, ", ")
	if j.OnLabels {
		on = "row-labels"
	}
	return fmt.Sprintf("JOIN(%s, on=%s)", j.Kind, on)
}

// DropDuplicates removes duplicate rows, keeping the first occurrence in
// input order.
type DropDuplicates struct {
	Input Node
	// Subset restricts the duplicate test to these columns; nil means all.
	Subset []string
}

// Children returns the single input.
func (d *DropDuplicates) Children() []Node { return []Node{d.Input} }

// Describe renders the node.
func (d *DropDuplicates) Describe() string {
	if len(d.Subset) == 0 {
		return "DROP-DUPLICATES"
	}
	return "DROP-DUPLICATES(" + strings.Join(d.Subset, ", ") + ")"
}

// GroupBy groups identical key values and aggregates; it establishes a new
// order (by first appearance of each group, or key order when Sorted).
type GroupBy struct {
	Input Node
	Spec  expr.GroupBySpec
}

// Children returns the single input.
func (g *GroupBy) Children() []Node { return []Node{g.Input} }

// Describe renders the node.
func (g *GroupBy) Describe() string {
	aggs := make([]string, len(g.Spec.Aggs))
	for i, a := range g.Spec.Aggs {
		aggs[i] = a.Agg.String() + "(" + a.Col + ")"
	}
	return fmt.Sprintf("GROUPBY(keys=[%s], aggs=[%s])", strings.Join(g.Spec.Keys, ", "), strings.Join(aggs, ", "))
}

// Sort lexicographically orders rows, establishing a new order.
type Sort struct {
	Input Node
	Order expr.SortOrder
	// ByLabels sorts by the row labels rather than data columns.
	ByLabels bool
}

// Children returns the single input.
func (s *Sort) Children() []Node { return []Node{s.Input} }

// Describe renders the node.
func (s *Sort) Describe() string {
	if s.ByLabels {
		return "SORT(row-labels)"
	}
	keys := make([]string, len(s.Order))
	for i, k := range s.Order {
		keys[i] = k.Col
		if k.Desc {
			keys[i] += " desc"
		}
	}
	return "SORT(" + strings.Join(keys, ", ") + ")"
}

// Rename changes column labels, preserving everything else.
type Rename struct {
	Input   Node
	Mapping map[string]string
}

// Children returns the single input.
func (r *Rename) Children() []Node { return []Node{r.Input} }

// Describe renders the node.
func (r *Rename) Describe() string { return fmt.Sprintf("RENAME(%d cols)", len(r.Mapping)) }

// Window applies a function via a sliding window in either direction.
type Window struct {
	Input Node
	Spec  expr.WindowSpec
}

// Children returns the single input.
func (w *Window) Children() []Node { return []Node{w.Input} }

// Describe renders the node.
func (w *Window) Describe() string {
	switch w.Spec.Kind {
	case expr.WindowRolling:
		return fmt.Sprintf("WINDOW(rolling %d, %s)", w.Spec.Size, w.Spec.Agg)
	case expr.WindowExpanding:
		return fmt.Sprintf("WINDOW(expanding, %s)", w.Spec.Agg)
	case expr.WindowShift:
		return fmt.Sprintf("WINDOW(shift %d)", w.Spec.Offset)
	case expr.WindowDiff:
		return fmt.Sprintf("WINDOW(diff %d)", w.Spec.Offset)
	}
	return "WINDOW"
}

// Transpose swaps data and metadata between rows and columns: the result is
// (Aᵀnm, Cn, Rm, null) with the schema left to be re-induced, unless Schema
// declares it (Section 5.1.2's df_t = TRANSPOSE(df, myschema) form).
type Transpose struct {
	Input Node
	// Schema optionally declares the output domains, skipping induction.
	Schema []types.Domain
}

// Children returns the single input.
func (t *Transpose) Children() []Node { return []Node{t.Input} }

// Describe renders the node.
func (t *Transpose) Describe() string { return "TRANSPOSE" }

// Map applies a function uniformly to every row.
type Map struct {
	Input Node
	Fn    expr.MapFn
}

// Children returns the single input.
func (m *Map) Children() []Node { return []Node{m.Input} }

// Describe renders the node.
func (m *Map) Describe() string { return "MAP(" + m.Fn.Name + ")" }

// ToLabels projects a data column out to become the row labels, replacing
// the old labels: data is promoted into metadata.
type ToLabels struct {
	Input Node
	// Col is the label of the column to promote.
	Col string
}

// Children returns the single input.
func (t *ToLabels) Children() []Node { return []Node{t.Input} }

// Describe renders the node.
func (t *ToLabels) Describe() string { return "TOLABELS(" + t.Col + ")" }

// FromLabels inserts the row labels as a new data column at position 0 and
// resets the labels to positional notation: metadata is demoted into data.
type FromLabels struct {
	Input Node
	// Label names the new column.
	Label string
}

// Children returns the single input.
func (f *FromLabels) Children() []Node { return []Node{f.Input} }

// Describe renders the node.
func (f *FromLabels) Describe() string { return "FROMLABELS(" + f.Label + ")" }

// Induce is the explicit schema-induction point: it applies S and the
// parsing functions to every unspecified column of its input. Making
// induction a plan node is what lets the optimizer defer, hoist, or elide it
// (Section 5.1).
type Induce struct {
	Input Node
}

// Children returns the single input.
func (i *Induce) Children() []Node { return []Node{i.Input} }

// Describe renders the node.
func (i *Induce) Describe() string { return "INDUCE-SCHEMA" }

// Limit is a physical convenience node (not part of the 14-operator
// algebra): it retains the ordered prefix (N>0) or suffix (N<0) of its
// input. Sessions use it to materialize head/tail views cheaply
// (Section 6.1.2).
type Limit struct {
	Input Node
	N     int
}

// Children returns the single input.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Describe renders the node.
func (l *Limit) Describe() string { return fmt.Sprintf("LIMIT(%d)", l.N) }

// Render pretty-prints a plan tree, one operator per line, children
// indented.
func Render(n Node) string {
	var b strings.Builder
	render(&b, n, 0)
	return b.String()
}

func render(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		render(b, c, depth+1)
	}
}

// Walk visits every node of the plan in pre-order.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// CountNodes returns the number of operators in the plan.
func CountNodes(n Node) int {
	count := 0
	Walk(n, func(Node) { count++ })
	return count
}

// OutputColumns infers the plan's output column labels without executing
// it; nil means the labels cannot be determined statically (transposes,
// joins, and row UDFs with undeclared outputs — every other operator is
// derivable). The query builder uses this to resolve column-set operations
// early, and the optimizer to prove label-sensitive rewrites sound.
func OutputColumns(n Node) []string {
	switch node := n.(type) {
	case *Source:
		return node.DF.ColNames()
	case *Scan:
		return node.Columns
	case *Projection:
		return node.Cols
	case *Rename:
		in := OutputColumns(node.Input)
		if in == nil {
			return nil
		}
		out := make([]string, len(in))
		for i, name := range in {
			if to, ok := node.Mapping[name]; ok {
				out[i] = to
			} else {
				out[i] = name
			}
		}
		return out
	case *Selection:
		return OutputColumns(node.Input)
	case *Sort:
		return OutputColumns(node.Input)
	case *DropDuplicates:
		return OutputColumns(node.Input)
	case *Limit:
		return OutputColumns(node.Input)
	case *TopK:
		return OutputColumns(node.Input)
	case *Induce:
		return OutputColumns(node.Input)
	case *Window:
		return OutputColumns(node.Input)
	case *Union:
		// UnionFrames aligns by label: left's columns in order, then
		// right-only labels appended at first appearance.
		left := OutputColumns(node.Left)
		right := OutputColumns(node.Right)
		if left == nil || right == nil {
			return nil
		}
		seen := make(map[string]bool, len(left))
		for _, name := range left {
			seen[name] = true
		}
		out := append([]string(nil), left...)
		for _, name := range right {
			if !seen[name] {
				out = append(out, name)
				seen[name] = true
			}
		}
		return out
	case *Difference:
		return OutputColumns(node.Left)
	case *Map:
		if node.Fn.OutCols == nil {
			return OutputColumns(node.Input)
		}
		out := make([]string, len(node.Fn.OutCols))
		for i, label := range node.Fn.OutCols {
			out[i] = label.String()
		}
		return out
	case *GroupBy:
		var out []string
		if !node.Spec.AsLabels {
			out = append(out, node.Spec.Keys...)
		}
		for _, a := range node.Spec.Aggs {
			out = append(out, a.OutName())
		}
		return out
	case *ToLabels:
		in := OutputColumns(node.Input)
		if in == nil {
			return nil
		}
		out := make([]string, 0, len(in))
		removed := false
		for _, name := range in {
			if !removed && name == node.Col {
				removed = true
				continue
			}
			out = append(out, name)
		}
		return out
	case *FromLabels:
		in := OutputColumns(node.Input)
		if in == nil {
			return nil
		}
		return append([]string{node.Label}, in...)
	}
	return nil
}

// Engine executes logical plans. The baseline (internal/eager) and MODIN
// (internal/modin) engines implement it; the query layer and public API are
// engine-agnostic.
type Engine interface {
	// Name identifies the engine ("pandas-baseline", "modin").
	Name() string
	// Execute evaluates the plan to a materialized dataframe.
	Execute(Node) (*core.DataFrame, error)
}

// WithChildren clones the node with new inputs, preserving all other
// configuration. Node values are small structs, so cloning is cheap.
func WithChildren(n Node, kids []Node) Node {
	switch node := n.(type) {
	case *Source:
		return node
	case *Scan:
		return node
	case *Selection:
		c := *node
		c.Input = kids[0]
		return &c
	case *Projection:
		c := *node
		c.Input = kids[0]
		return &c
	case *Union:
		c := *node
		c.Left, c.Right = kids[0], kids[1]
		return &c
	case *Difference:
		c := *node
		c.Left, c.Right = kids[0], kids[1]
		return &c
	case *Join:
		c := *node
		c.Left, c.Right = kids[0], kids[1]
		return &c
	case *DropDuplicates:
		c := *node
		c.Input = kids[0]
		return &c
	case *GroupBy:
		c := *node
		c.Input = kids[0]
		return &c
	case *Sort:
		c := *node
		c.Input = kids[0]
		return &c
	case *Rename:
		c := *node
		c.Input = kids[0]
		return &c
	case *Window:
		c := *node
		c.Input = kids[0]
		return &c
	case *Transpose:
		c := *node
		c.Input = kids[0]
		return &c
	case *Map:
		c := *node
		c.Input = kids[0]
		return &c
	case *ToLabels:
		c := *node
		c.Input = kids[0]
		return &c
	case *FromLabels:
		c := *node
		c.Input = kids[0]
		return &c
	case *Induce:
		c := *node
		c.Input = kids[0]
		return &c
	case *Limit:
		c := *node
		c.Input = kids[0]
		return &c
	case *TopK:
		c := *node
		c.Input = kids[0]
		return &c
	}
	panic(fmt.Sprintf("algebra: unknown node %T", n))
}
