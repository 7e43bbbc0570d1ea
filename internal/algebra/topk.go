package algebra

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/vector"
)

// TopK is a physical operator (not part of the 14-operator logical algebra)
// produced by the optimizer's LIMIT∘SORT fusion: the ordered k-prefix
// (N>0) or k-suffix (N<0) of the sorted input, computed with a bounded heap
// in O(n log k) instead of a full O(n log n) sort. It is the paper's
// Section 6.1.2 answer to SORT being a blocking operator when the user only
// inspects head/tail.
type TopK struct {
	Input Node
	Order expr.SortOrder
	N     int
}

// Children returns the single input.
func (t *TopK) Children() []Node { return []Node{t.Input} }

// Describe renders the node.
func (t *TopK) Describe() string {
	keys := make([]string, len(t.Order))
	for i, k := range t.Order {
		keys[i] = k.Col
		if k.Desc {
			keys[i] += " desc"
		}
	}
	return fmt.Sprintf("TOPK(%d, by=%v)", t.N, keys)
}

// rowHeap keeps the k best row positions, worst at the top, so a better
// candidate evicts the current worst in O(log k).
type rowHeap struct {
	idx []int
	// worse reports whether row a orders after row b in the kept
	// direction (i.e., a is a worse candidate).
	worse func(a, b int) bool
}

func (h *rowHeap) Len() int           { return len(h.idx) }
func (h *rowHeap) Less(i, j int) bool { return h.worse(h.idx[i], h.idx[j]) }
func (h *rowHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *rowHeap) Push(x any)         { h.idx = append(h.idx, x.(int)) }
func (h *rowHeap) Pop() any           { last := h.idx[len(h.idx)-1]; h.idx = h.idx[:len(h.idx)-1]; return last }

// TopKFrame computes the ordered k-prefix (n>0) or k-suffix (n<0) of
// SORT(df, order) without sorting the whole frame. Ties resolve by input
// position, matching the stable SORT kernel exactly.
func TopKFrame(df *core.DataFrame, order expr.SortOrder, n int) (*core.DataFrame, error) {
	k := n
	suffix := false
	if n < 0 {
		k = -n
		suffix = true
	}
	if k >= df.NRows() {
		return SortFrame(df, order, false)
	}
	if k == 0 {
		return df.SliceRows(0, 0), nil
	}
	keys, desc, err := sortKeys(df, order, "topk")
	if err != nil {
		return nil, err
	}

	// less reports whether row a sorts strictly before row b under the
	// order, with input position breaking ties (stability). Comparisons read
	// the keys' order-preserving words row by row (cells, for keys with no
	// word form): the heap sees every row but keeps k, so a word buffer for
	// every row would cost more than it saves.
	key, words := vector.NewSortKey(keys, desc)
	cmpRows := key.Compare
	if !words {
		cmpRows = vector.CellOrder(keys, desc)
	}
	less := func(a, b int) bool {
		if c := cmpRows(a, b); c != 0 {
			return c < 0
		}
		return a < b
	}

	// For a prefix we keep the k smallest (heap ordered so the largest
	// kept row pops first); for a suffix, the k largest.
	h := &rowHeap{}
	if suffix {
		h.worse = less
	} else {
		h.worse = func(a, b int) bool { return less(b, a) }
	}
	// beats reports whether row i, later than every kept row, displaces the
	// worst kept row: for a prefix it must sort strictly before it, for a
	// suffix after it or level with it (the later row sorts after a tie).
	beats := func(i int) bool {
		if suffix {
			return less(h.idx[0], i)
		}
		return less(i, h.idx[0])
	}
	// With words, the scan reads each row's words once against the worst
	// kept row's, which are read again only when the worst changes.
	var top []uint64
	if words {
		top = make([]uint64, key.Width())
		beats = func(i int) bool {
			for w, t := range top {
				if x := key.Word(i, w); x != t {
					return x < t != suffix
				}
			}
			return suffix
		}
	}
	for i := 0; i < df.NRows(); i++ {
		switch {
		case h.Len() < k:
			heap.Push(h, i)
		case beats(i):
			h.idx[0] = i
			heap.Fix(h, 0)
		default:
			continue
		}
		for w := range top {
			top[w] = key.Word(h.idx[0], w)
		}
	}
	picked := append([]int(nil), h.idx...)
	slices.SortFunc(picked, func(a, b int) int {
		if c := cmpRows(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return df.TakeRows(picked), nil
}
