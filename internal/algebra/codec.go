package algebra

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/types"
)

// Plan codec: the one binary form of a closure-free plan, which the plan
// cache keys on (optimizer.Fingerprint) and the cluster ships to workers. A
// plan encodes as one record per node in post-order, inputs before the node
// reading them and the root last, so a shared sub-plan encodes once and
// decoding checks every input reference against records already built. A
// record carries its operator with the inputs cleared: the expr specs ride
// unchanged (types.Value marshals itself), and gob skips the closure
// fields. Source and Scan leaves become positional placeholders, one per
// distinct frame (or scan) in first-reference order, so a self-join keeps
// one leaf and a record carries no data and no user-chosen names.

// registerOps tells gob the operators a record may carry, on first use.
var registerOps = sync.OnceFunc(func() {
	for _, n := range []Node{&Selection{}, &Projection{}, &Union{}, &Difference{}, &Join{}, &DropDuplicates{},
		&GroupBy{}, &Sort{}, &Rename{}, &Window{}, &Transpose{}, &ToLabels{}, &FromLabels{}, &Induce{}, &Limit{}, &TopK{}} {
		gob.Register(n)
	}
})

// nodeRecord is one encoded node: the operator (nil for a leaf placeholder)
// and the positions of its inputs among the earlier records.
type nodeRecord struct {
	Node   Node
	Inputs []int
	Leaf   int
	// Rename is a Rename's mapping as pairs sorted by source label (gob
	// writes a map in random order).
	Rename [][2]string
	// Empty marks a Window.Spec.Cols or Transpose.Schema that is empty but
	// not nil, which gob would deliver as nil: an empty window column list
	// windows nothing, a nil one everything.
	Empty bool
}

// Opaque reports whether n itself has no binary form: a MAP, whose function
// is a Go closure, or a selection without a structured Where or with an
// operand that has no binary form. n's inputs are not inspected.
func Opaque(n Node) bool {
	switch node := n.(type) {
	case *Map:
		return true
	case *Selection:
		if node.Where == nil {
			return true
		}
		for _, t := range node.Where.Terms {
			if _, err := t.Operand.MarshalBinary(); err != nil {
				return true
			}
		}
	}
	return false
}

// EncodePlan renders a closure-free plan in its binary form. leaves are the
// plan's Source and Scan nodes in placeholder order, one per distinct frame
// or scan; DecodePlan takes them back.
func EncodePlan(n Node) (data []byte, leaves []Node, err error) {
	registerOps()
	e := planEncoder{at: make(map[any]int)}
	if _, err := e.add(n); err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e.nodes); err != nil {
		return nil, nil, fmt.Errorf("algebra: encode plan: %w", err)
	}
	return buf.Bytes(), e.leaves, nil
}

type planEncoder struct {
	nodes  []nodeRecord
	leaves []Node
	at     map[any]int // node, or a Source's frame → its record's position
}

// add appends n's record after its inputs' and returns its position.
func (e *planEncoder) add(n Node) (int, error) {
	var key any = n
	if s, ok := n.(*Source); ok {
		key = s.DF
	}
	if i, ok := e.at[key]; ok {
		return i, nil
	}
	rec, err := e.record(n)
	if err != nil {
		return 0, err
	}
	for _, c := range n.Children() {
		i, err := e.add(c)
		if err != nil {
			return 0, err
		}
		rec.Inputs = append(rec.Inputs, i)
	}
	e.at[key] = len(e.nodes)
	e.nodes = append(e.nodes, rec)
	return len(e.nodes) - 1, nil
}

// record renders n without its inputs. An operator registerOps does not
// list fails later, in gob.
func (e *planEncoder) record(n Node) (nodeRecord, error) {
	switch n.(type) {
	case *Source, *Scan:
		e.leaves = append(e.leaves, n)
		return nodeRecord{Leaf: len(e.leaves) - 1}, nil
	}
	if Opaque(n) {
		return nodeRecord{}, fmt.Errorf("algebra: %s has no binary form", n.Describe())
	}
	rec := nodeRecord{Node: WithChildren(n, make([]Node, len(n.Children())))}
	switch node := rec.Node.(type) {
	case *Selection:
		node.Pred, node.Desc = nil, ""
	case *Rename:
		for from, to := range node.Mapping {
			rec.Rename = append(rec.Rename, [2]string{from, to})
		}
		sort.Slice(rec.Rename, func(i, j int) bool { return rec.Rename[i][0] < rec.Rename[j][0] })
		node.Mapping = nil
	case *Window:
		rec.Empty = node.Spec.Cols != nil && len(node.Spec.Cols) == 0
	case *Transpose:
		rec.Empty = node.Schema != nil && len(node.Schema) == 0
	}
	return rec, nil
}

// DecodePlan rebuilds a plan from EncodePlan's bytes, binding placeholder i
// to leaves[i]. The bytes may come off the network, so an unknown operator,
// a wrong input count, an input that is not an earlier record, or an
// out-of-range leaf is an error, never a panic.
func DecodePlan(data []byte, leaves []Node) (Node, error) {
	registerOps()
	var recs []nodeRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return nil, fmt.Errorf("algebra: decode plan: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("algebra: decode plan: no nodes")
	}
	built := make([]Node, len(recs))
	for i, rec := range recs {
		if rec.Node == nil {
			if len(rec.Inputs) != 0 || rec.Leaf < 0 || rec.Leaf >= len(leaves) {
				return nil, fmt.Errorf("algebra: decode plan: leaf %d of %d with %d inputs", rec.Leaf, len(leaves), len(rec.Inputs))
			}
			built[i] = leaves[rec.Leaf]
			continue
		}
		if want := len(rec.Node.Children()); len(rec.Inputs) != want {
			return nil, fmt.Errorf("algebra: decode plan: %T has %d inputs, want %d", rec.Node, len(rec.Inputs), want)
		}
		inputs := make([]Node, len(rec.Inputs))
		for k, j := range rec.Inputs {
			if j < 0 || j >= i {
				return nil, fmt.Errorf("algebra: decode plan: node %d reads node %d", i, j)
			}
			inputs[k] = built[j]
		}
		switch node := rec.Node.(type) {
		case *Selection:
			if node.Where == nil {
				node.Where = &expr.Where{} // gob drops an empty conjunction
			}
		case *Rename:
			node.Mapping = make(map[string]string, len(rec.Rename))
			for _, p := range rec.Rename {
				node.Mapping[p[0]] = p[1]
			}
		case *Window:
			if rec.Empty {
				node.Spec.Cols = []string{}
			}
		case *Transpose:
			if rec.Empty {
				node.Schema = []types.Domain{}
			}
		}
		built[i] = WithChildren(rec.Node, inputs)
	}
	return built[len(built)-1], nil
}
