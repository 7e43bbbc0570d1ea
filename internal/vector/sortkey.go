package vector

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Order-preserving sort words: the typed kernel beneath SORT, TOPK and the
// range shuffle's merge. A SortKey resolves each key column's kind once and
// then reads one or two uint64 words per row, such that comparing two rows'
// word tuples as unsigned integers orders them exactly as CompareRows orders
// their cells: nulls first, then by value, and a descending key reversed
// (nulls last). A chunked key reads its flat copy. Columns with no word
// form — Object strings, boxed columns, selections stacked on selections —
// report ok=false, and their callers compare cells with CompareRows instead.

// wordKind is how one word column reads its storage.
type wordKind uint8

const (
	wordInt   wordKind = iota // Int, Datetime: two's complement with the sign bit flipped
	wordNulls                 // null rank ahead of an Int or Datetime key with nulls: null 0, else 1
	wordFloat                 // IEEE total order with -0 read as +0; NaN and null 0
	wordBool                  // null 0, false 1, true 2
	wordDict                  // null 0, else 1 + the rank of the code's string in its table
)

// wordCol reads one word per row of a key column.
type wordCol struct {
	kind   wordKind
	flip   uint64 // all ones for a descending key: every word complemented
	ints   []int64
	floats []float64
	bools  []bool
	codes  []int32
	ranks  []uint64 // Dict code → word
	nulls  []bool   // indexed by storage position; nil when no row is null
	idx    []int    // a view's selection: row i reads position idx[i], -1 is null
}

// word returns row i's word. A null row reads 0 (complemented when
// descending) in every kind; the Int kinds, whose values use the full word
// range, tell nulls apart by the wordNulls column in front of them.
func (c *wordCol) word(i int) uint64 {
	if c.idx != nil {
		if i = c.idx[i]; i < 0 {
			return c.flip
		}
	}
	if c.nulls != nil && c.nulls[i] {
		return c.flip
	}
	var w uint64
	switch c.kind {
	case wordInt:
		w = uint64(c.ints[i]) ^ 1<<63
	case wordNulls:
		w = 1
	case wordFloat:
		w = floatWord(c.floats[i])
	case wordBool:
		w = 1
		if c.bools[i] {
			w = 2
		}
	case wordDict:
		w = c.ranks[c.codes[i]]
	}
	return w ^ c.flip
}

// floatWord maps a float to its IEEE total-order word: negative numbers
// complemented, the rest with the sign bit set, without a branch on the
// sign. Adding +0 turns -0 into +0, which compares equal to it. NaN, which
// reads as null, takes 0, below every number: the smallest number's word,
// -Inf's, is 0x000F_FFFF_FFFF_FFFF.
func floatWord(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// SortKey is a tuple of sort key columns resolved into order-preserving
// words.
type SortKey struct {
	cols []wordCol
}

// NewSortKey resolves the key columns, descending where desc[k], into words.
// It reports ok=false when some key has no word form.
func NewSortKey(keys []Vector, desc []bool) (SortKey, bool) {
	ks, ok := runKeys([][]Vector{keys}, desc)
	if !ok {
		return SortKey{}, false
	}
	return ks[0], true
}

// runKeys resolves the key columns of several runs — runs[r][k] is key k of
// run r — into one SortKey per run whose word tuples compare across runs:
// key k has one storage kind in every run, a Dict key one category table
// (so one rank table), and an Int or Datetime key carries the null-rank
// word in every run when any run can be null. It reports ok=false when some
// key has no word form or the runs' words would not compare.
func runKeys(runs [][]Vector, desc []bool) ([]SortKey, bool) {
	out := make([]SortKey, len(runs))
	cols := make([]wordCol, len(runs))
	for k := range desc {
		var flip uint64
		if desc[k] {
			flip = ^uint64(0)
		}
		var first Vector
		var table []string
		var ranks []uint64
		nullable := false
		for r, keys := range runs {
			c := wordCol{flip: flip}
			var v Vector
			v, c.idx = unview(keys[k])
			if r == 0 {
				first = v
			} else if v.Domain() != first.Domain() {
				return nil, false
			}
			switch s := v.(type) {
			case *Int:
				c.kind, c.ints, c.nulls = wordInt, s.data, s.nulls
			case *Datetime:
				c.kind, c.ints, c.nulls = wordInt, s.data, s.nulls
			case *Float:
				c.kind, c.floats, c.nulls = wordFloat, s.data, s.nulls
			case *Bool:
				c.kind, c.bools, c.nulls = wordBool, s.data, s.nulls
			case *Dict:
				if r == 0 {
					table, ranks = s.dict, dictRanks(s.dict)
				} else if !sameDict(table, s.dict) {
					return nil, false
				}
				c.kind, c.codes, c.nulls, c.ranks = wordDict, s.codes, s.nulls, ranks
			default:
				return nil, false
			}
			if c.kind == wordInt {
				if slices.Contains(c.nulls, true) || slices.ContainsFunc(c.idx, func(p int) bool { return p < 0 }) {
					nullable = true
				} else {
					c.nulls = nil
				}
			}
			cols[r] = c
		}
		for r, c := range cols {
			if nullable {
				lead := c
				lead.kind = wordNulls
				out[r].cols = append(out[r].cols, lead)
			}
			out[r].cols = append(out[r].cols, c)
		}
	}
	return out, true
}

// dictRanks maps each code of a category table to 1 + the rank of its
// string among the table's distinct strings, so equal strings share a word
// and 0 stays free for null.
func dictRanks(dict []string) []uint64 {
	order := make([]int32, len(dict))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(dict[a], dict[b]) })
	ranks := make([]uint64, len(dict))
	var r uint64
	for k, code := range order {
		if k == 0 || dict[code] != dict[order[k-1]] {
			r++
		}
		ranks[code] = r
	}
	return ranks
}

// Width returns the number of words per row.
func (k SortKey) Width() int { return len(k.cols) }

// Word returns word w of row i, read from storage.
func (k SortKey) Word(i, w int) uint64 { return k.cols[w].word(i) }

// Compare orders rows i and j by their word tuples, reading each word from
// storage: -1, 0 or +1, the sign CompareRows gives the key tuples.
func (k SortKey) Compare(i, j int) int {
	for c := range k.cols {
		a, b := k.cols[c].word(i), k.cols[c].word(j)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	return 0
}

// Fill writes every row's word tuple into dst, row after row: word w of row
// i lands at dst[i*Width()+w]. dst must hold rows × Width() words.
func (k SortKey) Fill(dst []uint64) {
	m := len(k.cols)
	for w := range k.cols {
		c := &k.cols[w]
		for i, at := 0, w; at < len(dst); i, at = i+1, at+m {
			dst[at] = c.word(i)
		}
	}
}

// CellOrder compares rows i and j by CompareRows over the key columns, key
// by key, negated where desc[k]. It is the order of keys with no word form.
func CellOrder(keys []Vector, desc []bool) func(i, j int) int {
	return func(i, j int) int {
		for k, v := range keys {
			c := CompareRows(v, i, v, j)
			if desc[k] {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// Order returns the stable order of n rows under the key columns,
// descending where desc[k]: entry p is the row that sorts p-th, and rows
// with equal keys keep their relative order. Keys with a word form sort by
// an LSD radix sort of their word tuples; keys without one sort by
// comparison over CompareRows.
func Order(keys []Vector, desc []bool, n int) []int {
	if k, ok := NewSortKey(keys, desc); ok {
		return k.radixOrder(n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	cmpRows := CellOrder(keys, desc)
	// Row position breaks ties, which makes the unstable sort produce the
	// stable order.
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmpRows(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// radixOrder returns the order of the key's n rows by their word tuples:
// least significant word first, each word byte by byte from its low byte,
// every pass a stable counting scatter. A byte that is the same on every
// row orders nothing and is skipped, so a key of small values (Bool, Dict
// ranks, the null rank) costs one pass per word.
func (k SortKey) radixOrder(n int) []int {
	idx, idxTo := make([]int, n), make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if n < 2 {
		return idx
	}
	words, wordsTo := make([]uint64, n), make([]uint64, n)
	for w := len(k.cols) - 1; w >= 0; w-- {
		c := &k.cols[w]
		// Word w of each row, in the order the less significant words left.
		var counts [8][256]int
		for p, i := range idx {
			x := c.word(i)
			words[p] = x
			for d := range counts {
				counts[d][byte(x>>(8*d))]++
			}
		}
		for d := range counts {
			shift := 8 * d
			count := &counts[d]
			if count[byte(words[0]>>shift)] == n {
				continue
			}
			var at [256]int
			sum := 0
			for v, rows := range count {
				at[v] = sum
				sum += rows
			}
			for p, x := range words {
				v := byte(x >> shift)
				wordsTo[at[v]], idxTo[at[v]] = x, idx[p]
				at[v]++
			}
			words, wordsTo = wordsTo, words
			idx, idxTo = idxTo, idx
		}
	}
	return idx
}
