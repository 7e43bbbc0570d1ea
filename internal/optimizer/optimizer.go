// Package optimizer implements the logical rewrite rules the paper's
// research agenda calls for: transpose pull-up and double-transpose
// elimination (Section 5.2.2), schema-induction deferral and elision
// (Section 5.1.1), MAP fusion (Section 5.1.3), projection pushdown, column
// pruning of GROUPBY inputs, and the sorted-column group-by rewrite behind
// the pivot plans of Figure 8.
package optimizer

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/types"
)

// Rule is one rewrite: Apply returns the rewritten node and whether it
// fired. Rules match on the root of the subtree they are given; Optimize
// applies them everywhere bottom-up.
type Rule interface {
	Name() string
	Apply(algebra.Node) (algebra.Node, bool)
}

// Optimize rewrites the plan to fixpoint (bounded by a generous pass limit)
// and reports the names of the rules that fired, in order.
func Optimize(n algebra.Node, rules []Rule) (algebra.Node, []string) {
	var fired []string
	for pass := 0; pass < 32; pass++ {
		var changed bool
		n, changed = rewriteBottomUp(n, rules, &fired)
		if !changed {
			break
		}
	}
	return n, fired
}

// Default returns the standard rule set, in application order.
func Default() []Rule {
	return []Rule{
		DoubleTranspose{},
		TransposePullUp{},
		FuseSelections{},
		FuseMaps{},
		ElideInduceAfterDeclaredMap{},
		CollapseInduce{},
		DeferInduce{},
		PushProjectionThroughMap{},
		PushProjectionThroughSelection{},
		PushProjectionThroughSort{},
		PushProjectionThroughRename{},
		CollapseProjections{},
		// Before the pruning rule: a projection that cannot sink below the
		// SORT (a sort key the groupby does not read) would otherwise sit
		// between the two and hide the match.
		SortedGroupBy{},
		PruneGroupByInput{},
		LimitSortToTopK{},
	}
}

func rewriteBottomUp(n algebra.Node, rules []Rule, fired *[]string) (algebra.Node, bool) {
	changed := false
	// Rebuild children first.
	children := n.Children()
	newChildren := make([]algebra.Node, len(children))
	for i, c := range children {
		nc, ch := rewriteBottomUp(c, rules, fired)
		newChildren[i] = nc
		changed = changed || ch
	}
	if changed {
		n = algebra.WithChildren(n, newChildren)
	}
	for _, r := range rules {
		if out, ok := r.Apply(n); ok {
			*fired = append(*fired, r.Name())
			return out, true
		}
	}
	return n, changed
}

// DoubleTranspose eliminates TRANSPOSE∘TRANSPOSE. Sound when the inner
// transpose declares no schema: T of T restores data, labels, and the
// lazily-induced schema (the Python-style Object coercion of Section 4.3
// guarantees S recovers the original Dn).
type DoubleTranspose struct{}

// Name identifies the rule.
func (DoubleTranspose) Name() string { return "double-transpose-elimination" }

// Apply rewrites T(T(x)) → x.
func (DoubleTranspose) Apply(n algebra.Node) (algebra.Node, bool) {
	outer, ok := n.(*algebra.Transpose)
	if !ok || outer.Schema != nil {
		return n, false
	}
	inner, ok := outer.Input.(*algebra.Transpose)
	if !ok || inner.Schema != nil {
		return n, false
	}
	return inner.Input, true
}

// TransposePullUp hoists TRANSPOSE above elementwise MAPs: MAP_e(T(x)) →
// T(MAP_e(x)). Elementwise functions commute with axis exchange, and
// pulling the transpose up lets it cancel against another transpose or be
// deferred past more of the plan (the "transpose pull-up" of Section 5.2.2).
type TransposePullUp struct{}

// Name identifies the rule.
func (TransposePullUp) Name() string { return "transpose-pull-up" }

// Apply rewrites MAP_e(T(x)) → T(MAP_e(x)).
func (TransposePullUp) Apply(n algebra.Node) (algebra.Node, bool) {
	m, ok := n.(*algebra.Map)
	if !ok || m.Fn.Elementwise == nil || m.Fn.OutCols != nil {
		return n, false
	}
	t, ok := m.Input.(*algebra.Transpose)
	if !ok || t.Schema != nil {
		return n, false
	}
	// Elementwise output domains apply per cell, not per axis, so they
	// survive the exchange.
	inner := &algebra.Map{Input: t.Input, Fn: m.Fn}
	return &algebra.Transpose{Input: inner}, true
}

// FuseSelections merges adjacent structured SELECTIONs into one node:
// SELECT_w2(SELECT_w1(x)) → SELECT_{w1∧w2}(x). The typed filter kernel
// narrows one shared selection vector term by term, so the fused node runs
// every predicate in a single pass with no intermediate row materialization
// — the selection-vector analog of MAP fusion. Only Where-bearing
// selections qualify: opaque predicates have no conjunction form.
type FuseSelections struct{}

// Name identifies the rule.
func (FuseSelections) Name() string { return "fuse-selections" }

// Apply rewrites SELECT_w2(SELECT_w1(x)) → SELECT_{w1∧w2}(x).
func (FuseSelections) Apply(n algebra.Node) (algebra.Node, bool) {
	outer, ok := n.(*algebra.Selection)
	if !ok || outer.Where == nil {
		return n, false
	}
	inner, ok := outer.Input.(*algebra.Selection)
	if !ok || inner.Where == nil {
		return n, false
	}
	terms := make([]expr.WhereTerm, 0, len(inner.Where.Terms)+len(outer.Where.Terms))
	terms = append(terms, inner.Where.Terms...)
	terms = append(terms, outer.Where.Terms...)
	merged := &expr.Where{Terms: terms}
	return &algebra.Selection{
		Input: inner.Input,
		Where: merged,
		Pred:  merged.Predicate(),
		Desc:  merged.Describe(),
	}, true
}

// FuseMaps combines adjacent elementwise MAPs into one pass:
// MAP_f(MAP_g(x)) → MAP_{f∘g}(x), the operator-fusion opportunity of
// Section 5.1.3.
type FuseMaps struct{}

// Name identifies the rule.
func (FuseMaps) Name() string { return "map-fusion" }

// Apply rewrites MAP_f(MAP_g(x)) → MAP_{f∘g}(x).
func (FuseMaps) Apply(n algebra.Node) (algebra.Node, bool) {
	outer, ok := n.(*algebra.Map)
	if !ok || outer.Fn.Elementwise == nil {
		return n, false
	}
	inner, ok := outer.Input.(*algebra.Map)
	if !ok || inner.Fn.Elementwise == nil {
		return n, false
	}
	f, g := outer.Fn.Elementwise, inner.Fn.Elementwise
	fused := expr.MapFn{
		Name:        inner.Fn.Name + "∘" + outer.Fn.Name,
		OutCols:     outer.Fn.OutCols,
		OutDoms:     outer.Fn.OutDoms,
		Elementwise: func(v types.Value) types.Value { return f(g(v)) },
	}
	if fused.OutCols == nil {
		fused.OutCols = inner.Fn.OutCols
	}
	return &algebra.Map{Input: inner.Input, Fn: fused}, true
}

// ElideInduceAfterDeclaredMap removes INDUCE above a MAP whose output
// domains are fully declared: there is nothing left to induce (the UDF-
// with-known-output-type rewrite of Section 5.1.1).
type ElideInduceAfterDeclaredMap struct{}

// Name identifies the rule.
func (ElideInduceAfterDeclaredMap) Name() string { return "elide-induce-declared-map" }

// Apply rewrites INDUCE(MAP_declared(x)) → MAP_declared(x).
func (ElideInduceAfterDeclaredMap) Apply(n algebra.Node) (algebra.Node, bool) {
	ind, ok := n.(*algebra.Induce)
	if !ok {
		return n, false
	}
	m, ok := ind.Input.(*algebra.Map)
	if !ok || m.Fn.OutDoms == nil {
		return n, false
	}
	return m, true
}

// CollapseInduce merges consecutive INDUCE nodes: the second is a no-op.
type CollapseInduce struct{}

// Name identifies the rule.
func (CollapseInduce) Name() string { return "collapse-induce" }

// Apply rewrites INDUCE(INDUCE(x)) → INDUCE(x).
func (CollapseInduce) Apply(n algebra.Node) (algebra.Node, bool) {
	outer, ok := n.(*algebra.Induce)
	if !ok {
		return n, false
	}
	if _, ok := outer.Input.(*algebra.Induce); !ok {
		return n, false
	}
	return outer.Input, true
}

// DeferInduce pushes INDUCE above row-eliminating operators:
// op(INDUCE(x)) → INDUCE(op(x)) for SELECTION and LIMIT, which only shuffle
// or drop rows and never consult column domains through their own
// machinery. Parsing work is then spent only on surviving rows (Section
// 5.1.1: "if certain columns are not operated on, inferring their type can
// be deferred").
type DeferInduce struct{}

// Name identifies the rule.
func (DeferInduce) Name() string { return "defer-induce" }

// Apply rewrites SELECTION(INDUCE(x)) → INDUCE(SELECTION(x)), and the same
// for LIMIT.
func (DeferInduce) Apply(n algebra.Node) (algebra.Node, bool) {
	switch node := n.(type) {
	case *algebra.Selection:
		if ind, ok := node.Input.(*algebra.Induce); ok {
			c := *node
			c.Input = ind.Input
			return &algebra.Induce{Input: &c}, true
		}
	case *algebra.Limit:
		if ind, ok := node.Input.(*algebra.Induce); ok {
			c := *node
			c.Input = ind.Input
			return &algebra.Induce{Input: &c}, true
		}
	}
	return n, false
}

// PushProjectionThroughMap moves PROJECTION below label-preserving
// elementwise MAPs so the map touches fewer columns:
// PROJECT(MAP_e(x)) → MAP_e(PROJECT(x)).
type PushProjectionThroughMap struct{}

// Name identifies the rule.
func (PushProjectionThroughMap) Name() string { return "push-projection-through-map" }

// Apply rewrites PROJECT(MAP_e(x)) → MAP_e(PROJECT(x)).
func (PushProjectionThroughMap) Apply(n algebra.Node) (algebra.Node, bool) {
	p, ok := n.(*algebra.Projection)
	if !ok {
		return n, false
	}
	m, ok := p.Input.(*algebra.Map)
	if !ok || m.Fn.Elementwise == nil || m.Fn.OutCols != nil {
		return n, false
	}
	inner := &algebra.Projection{Input: m.Input, Cols: p.Cols}
	return &algebra.Map{Input: inner, Fn: m.Fn}, true
}

// PushProjectionThroughSelection moves PROJECTION below a structured
// SELECTION. When the predicate only reads projected columns the projection
// sinks whole: PROJECT_c(SELECT_w(x)) → SELECT_w(PROJECT_c(x)), and the
// selection filters narrow rows instead of full-width ones. When it reads a
// column the projection drops, the projection stays and a wider copy sinks:
// PROJECT_c(SELECT_w(x)) → PROJECT_c(SELECT_w(PROJECT_{c ∪ cols(w)}(x))),
// provided that strictly narrows x (see narrowTo — which is also what stops
// the rule from firing on its own output). Opaque predicates may read any
// column (including by position), so only Where-bearing selections qualify.
type PushProjectionThroughSelection struct{}

// Name identifies the rule.
func (PushProjectionThroughSelection) Name() string { return "push-projection-through-selection" }

// Apply rewrites PROJECT(SELECT_w(x)) as described on the type.
func (PushProjectionThroughSelection) Apply(n algebra.Node) (algebra.Node, bool) {
	p, ok := n.(*algebra.Projection)
	if !ok {
		return n, false
	}
	sel, ok := p.Input.(*algebra.Selection)
	if !ok || sel.Where == nil {
		return n, false
	}
	need := make(map[string]bool, len(p.Cols)+len(sel.Where.Terms))
	for _, c := range p.Cols {
		need[c] = true
	}
	kept := len(need)
	for _, term := range sel.Where.Terms {
		need[term.Col] = true
	}
	c := *sel
	if len(need) == kept {
		c.Input = &algebra.Projection{Input: sel.Input, Cols: p.Cols}
		return &c, true
	}
	cols, ok := narrowTo(sel.Input, need)
	if !ok {
		return n, false
	}
	c.Input = &algebra.Projection{Input: sel.Input, Cols: cols}
	return &algebra.Projection{Input: &c, Cols: p.Cols}, true
}

// narrowTo lists need in x's column order, for rules that insert a
// PROJECTION the user did not write. It declines unless the projection is
// provably invisible and useful: x's output labels are statically known and
// unique (a by-name projection resolves a duplicated label to its first
// occurrence only), every needed label is among them (a missing column must
// keep failing in the operator that reads it, with that operator's text),
// and need is non-empty and leaves at least one column out.
func narrowTo(x algebra.Node, need map[string]bool) ([]string, bool) {
	have := algebra.OutputColumns(x)
	if len(need) == 0 || len(need) >= len(have) {
		return nil, false
	}
	seen := make(map[string]bool, len(have))
	cols := make([]string, 0, len(need))
	for _, name := range have {
		if seen[name] {
			return nil, false
		}
		seen[name] = true
		if need[name] {
			cols = append(cols, name)
		}
	}
	return cols, len(cols) == len(need)
}

// PushProjectionThroughSort moves PROJECTION below a SORT whose keys all
// survive the projection: PROJECT(SORT(x, keys)) → SORT(PROJECT(x), keys).
// Projection preserves row order, so sorting narrow rows is equivalent.
type PushProjectionThroughSort struct{}

// Name identifies the rule.
func (PushProjectionThroughSort) Name() string { return "push-projection-through-sort" }

// Apply rewrites PROJECT(SORT(x, keys)) → SORT(PROJECT(x), keys).
func (PushProjectionThroughSort) Apply(n algebra.Node) (algebra.Node, bool) {
	p, ok := n.(*algebra.Projection)
	if !ok {
		return n, false
	}
	s, ok := p.Input.(*algebra.Sort)
	if !ok || s.ByLabels {
		return n, false
	}
	kept := make(map[string]bool, len(p.Cols))
	for _, c := range p.Cols {
		kept[c] = true
	}
	for _, key := range s.Order {
		if !kept[key.Col] {
			return n, false
		}
	}
	c := *s
	c.Input = &algebra.Projection{Input: s.Input, Cols: p.Cols}
	return &c, true
}

// PushProjectionThroughRename moves PROJECTION below RENAME, translating
// the projected labels back to their pre-rename names:
// PROJECT(RENAME(x, m)) → RENAME'(PROJECT'(x)). The rename then touches
// only surviving columns. The rule declines when the mapping collapses two
// sources onto one target (inversion is ambiguous), when a projected label
// was renamed *away* (the projection must keep erroring), or when the
// statically-inferred post-rename labels are unknown or contain duplicates
// (by-name projection resolves to the FIRST occurrence, which inversion
// cannot reproduce — e.g. renaming v→k beside an existing k). Mapping
// entries whose targets the projection drops are discarded unvalidated: a
// rename of a nonexistent column that the query never reads stops being an
// error, like a resolved catalog would treat it.
type PushProjectionThroughRename struct{}

// Name identifies the rule.
func (PushProjectionThroughRename) Name() string { return "push-projection-through-rename" }

// Apply rewrites PROJECT(RENAME(x, m)) → RENAME'(PROJECT'(x)).
func (PushProjectionThroughRename) Apply(n algebra.Node) (algebra.Node, bool) {
	p, ok := n.(*algebra.Projection)
	if !ok {
		return n, false
	}
	r, ok := p.Input.(*algebra.Rename)
	if !ok {
		return n, false
	}
	// Inversion is only faithful when every post-rename label is unique:
	// with duplicates, the projection picks the first occurrence, which may
	// be an untouched column shadowed by a rename target.
	post := algebra.OutputColumns(r)
	if post == nil {
		return n, false
	}
	seen := make(map[string]bool, len(post))
	for _, name := range post {
		if seen[name] {
			return n, false
		}
		seen[name] = true
	}
	inverse := make(map[string]string, len(r.Mapping))
	for from, to := range r.Mapping {
		if _, dup := inverse[to]; dup {
			return n, false
		}
		inverse[to] = from
	}
	sources := make([]string, len(p.Cols))
	narrowed := make(map[string]string)
	for i, col := range p.Cols {
		from, renamed := inverse[col]
		if !renamed {
			if _, away := r.Mapping[col]; away {
				// col was renamed to something else: projecting it above
				// the rename fails, so the plan must keep failing.
				return n, false
			}
			from = col
		}
		sources[i] = from
		if from != col {
			narrowed[from] = col
		}
	}
	inner := &algebra.Projection{Input: r.Input, Cols: sources}
	if len(narrowed) == 0 {
		return inner, true
	}
	return &algebra.Rename{Input: inner, Mapping: narrowed}, true
}

// CollapseProjections merges stacked projections into the outer one:
// PROJECT_a(PROJECT_b(x)) → PROJECT_a(x), sound when every outer column is
// produced by the inner projection (otherwise the inner projection's error
// must be preserved).
type CollapseProjections struct{}

// Name identifies the rule.
func (CollapseProjections) Name() string { return "collapse-projections" }

// Apply rewrites PROJECT_a(PROJECT_b(x)) → PROJECT_a(x) when a ⊆ b.
func (CollapseProjections) Apply(n algebra.Node) (algebra.Node, bool) {
	outer, ok := n.(*algebra.Projection)
	if !ok {
		return n, false
	}
	inner, ok := outer.Input.(*algebra.Projection)
	if !ok {
		return n, false
	}
	produced := make(map[string]bool, len(inner.Cols))
	for _, c := range inner.Cols {
		produced[c] = true
	}
	for _, c := range outer.Cols {
		if !produced[c] {
			return n, false
		}
	}
	return &algebra.Projection{Input: inner.Input, Cols: outer.Cols}, true
}

// SortedGroupBy marks a GROUPBY whose input is explicitly sorted by a
// prefix of the grouping keys, switching the engine from hashing to the
// streaming run-detection used by the Figure 8(b) pivot rewrite.
type SortedGroupBy struct{}

// Name identifies the rule.
func (SortedGroupBy) Name() string { return "sorted-groupby" }

// Apply sets Sorted on GROUPBY(SORT(x, keys...)) when the sort keys begin
// with the grouping keys (ascending).
func (SortedGroupBy) Apply(n algebra.Node) (algebra.Node, bool) {
	g, ok := n.(*algebra.GroupBy)
	if !ok || g.Spec.Sorted || len(g.Spec.Keys) == 0 {
		return n, false
	}
	s, ok := g.Input.(*algebra.Sort)
	if !ok || s.ByLabels || len(s.Order) < len(g.Spec.Keys) {
		return n, false
	}
	for i, key := range g.Spec.Keys {
		if s.Order[i].Col != key || s.Order[i].Desc {
			return n, false
		}
	}
	c := *g
	c.Spec.Sorted = true
	return &c, true
}

// PruneGroupByInput projects a GROUPBY's input onto the columns the spec
// reads: GROUPBY_spec(x) → GROUPBY_spec(PROJECT_need(x)), need = the keys and
// the aggregated columns, in x's column order. It is the one rule that
// creates a projection rather than moving one; the pushdown rules then carry
// it towards the leaf, so a shuffle partitions, spills and ships the two
// columns a groupby reads instead of every column of a wide scan. The rule
// declines when narrowTo does (unknown or duplicated labels, a missing key
// or aggregate column, nothing to drop — which covers GroupBy().Size() and
// its own output) and for any aggregate that reads whole rows: COLLECT
// gathers every non-key column of its group whatever Col says, and an empty
// Col on anything but SIZE is a whole-row aggregate too.
type PruneGroupByInput struct{}

// Name identifies the rule.
func (PruneGroupByInput) Name() string { return "prune-groupby-input" }

// Apply rewrites GROUPBY_spec(x) → GROUPBY_spec(PROJECT_need(x)).
func (PruneGroupByInput) Apply(n algebra.Node) (algebra.Node, bool) {
	g, ok := n.(*algebra.GroupBy)
	if !ok {
		return n, false
	}
	need := make(map[string]bool, len(g.Spec.Keys)+len(g.Spec.Aggs))
	for _, key := range g.Spec.Keys {
		need[key] = true
	}
	for _, a := range g.Spec.Aggs {
		switch {
		case a.Agg == expr.AggCollect, a.Col == "" && a.Agg != expr.AggSize:
			return n, false
		case a.Col != "":
			need[a.Col] = true
		}
	}
	cols, ok := narrowTo(g.Input, need)
	if !ok {
		return n, false
	}
	c := *g
	c.Input = &algebra.Projection{Input: g.Input, Cols: cols}
	return &c, true
}

// LimitSortToTopK fuses LIMIT(SORT(x)) into the TOPK physical operator:
// when the user inspects only the head or tail of a sorted result (the
// dominant inspection pattern of Section 6.1.2), a bounded heap replaces
// the full blocking sort — O(n log k) instead of O(n log n), and
// partition-parallel under MODIN.
type LimitSortToTopK struct{}

// Name identifies the rule.
func (LimitSortToTopK) Name() string { return "limit-sort-to-topk" }

// Apply rewrites LIMIT(SORT(x, order), n) → TOPK(x, order, n).
func (LimitSortToTopK) Apply(n algebra.Node) (algebra.Node, bool) {
	lim, ok := n.(*algebra.Limit)
	if !ok {
		return n, false
	}
	s, ok := lim.Input.(*algebra.Sort)
	if !ok || s.ByLabels || len(s.Order) == 0 {
		return n, false
	}
	return &algebra.TopK{Input: s.Input, Order: s.Order, N: lim.N}, true
}

// Explain renders the plan before and after optimization with the fired
// rules, for debugging and documentation.
func Explain(n algebra.Node, rules []Rule) string {
	var b strings.Builder
	b.WriteString("before:\n")
	b.WriteString(algebra.Render(n))
	out, fired := Optimize(n, rules)
	b.WriteString("after:\n")
	b.WriteString(algebra.Render(out))
	b.WriteString("rules fired: ")
	if len(fired) == 0 {
		b.WriteString("(none)")
	} else {
		b.WriteString(strings.Join(fired, ", "))
	}
	b.WriteByte('\n')
	return b.String()
}
