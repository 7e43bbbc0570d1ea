// Package schema implements the schema-induction function S of Definition
// 4.1: given a column of raw Σ* strings, S assigns the most specific domain
// in Dom that describes it. It also implements the deferral and caching
// machinery of Section 5.1 ("Flexible Schemas, Dynamic Typing"): induction
// results can be cached per column and reused across statements.
//
// S and the parsing function p_S(v) are one pass: a cell is parsed once,
// straight into the unboxed storage of the narrowest domain still viable,
// and the domain falls out of where the pass ended. Induce, InduceAndParse
// and Cache all run that kernel; Parse is the other direction — a domain the
// caller declares, applied whatever the cells look like.
package schema

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vector"
)

// Induce is the schema-induction function S : Σ*ᵐ → Dom: the most specific
// domain every non-null entry of a raw column parses into, in the preference
// order bool < int < float < datetime < category < object. An all-null
// column induces Object, the default uninterpreted domain, and an already
// typed vector's own domain is its schema.
func Induce(v vector.Vector) types.Domain {
	d, _ := InduceAndParse(v)
	return d
}

// InduceSample induces a domain from a prefix sample of at most sampleSize
// entries. Sampled induction can be wrong (Section 5.1.1 notes the
// filtering/sampling caveat); callers that need certainty must use Induce.
func InduceSample(v vector.Vector, sampleSize int) types.Domain {
	if sampleSize > 0 && v.Len() > sampleSize {
		v = v.Slice(0, sampleSize)
	}
	return Induce(v)
}

// InduceAndParse runs S and p over a column in one pass, returning the
// induced domain and the typed vector. A column that induces Object is its
// own typed form.
func InduceAndParse(v vector.Vector) (types.Domain, vector.Vector) {
	var c cells
	if !c.read(v) {
		return v.Domain(), v
	}
	typed := c.scalars()
	if typed == nil {
		typed = c.category()
	}
	if typed == nil {
		return types.Object, v
	}
	return typed.Domain(), typed
}

// cells reads a raw Σ* column — an *Object, a selection view of one, or a
// chunk of such pieces, piece by piece — cell by cell.
type cells struct {
	rawPart           // the part the last read fell in
	parts   []rawPart // a chunk's parts in row order; nil for one piece
	n       int
}

// rawPart is rows [lo, hi) of a raw column: the storage ObjectData returns
// for one piece.
type rawPart struct {
	data   []string
	nulls  []bool
	idx    []int // nil reads data in place; -1 selects a null
	lo, hi int
}

// read points c at v's pieces as raw Σ* storage, reporting false when one
// is not raw. A selection stacked on a selection of a raw column is
// flattened.
func (c *cells) read(v vector.Vector) bool {
	pieces := vector.Pieces(v)
	lo := 0
	for _, piece := range pieces {
		data, nulls, idx, ok := vector.ObjectData(piece)
		if !ok && piece.Domain() == types.Object {
			data, nulls, idx, ok = vector.ObjectData(vector.Materialize(piece))
		}
		if !ok {
			return false
		}
		part := rawPart{data: data, nulls: nulls, idx: idx, lo: lo, hi: lo + piece.Len()}
		if lo == 0 {
			c.rawPart = part
		}
		if len(pieces) > 1 {
			c.parts = append(c.parts, part)
		}
		lo = part.hi
	}
	c.n = lo
	return true
}

// at returns cell i's text and whether the cell is null: masked, selected
// from nowhere, or spelled as a null literal.
func (c *cells) at(i int) (string, bool) {
	if i < c.lo || i >= c.hi {
		k := sort.Search(len(c.parts), func(k int) bool { return c.parts[k].hi > i })
		c.rawPart = c.parts[k]
	}
	if i -= c.lo; c.idx != nil {
		if i = c.idx[i]; i < 0 {
			return "", true
		}
	}
	if c.nulls != nil && c.nulls[i] {
		return "", true
	}
	s := c.data[i]
	return s, types.IsNullLiteral(s)
}

// mark sets bit i of a null mask that is allocated on its first null.
func (c *cells) mark(mask []bool, i int) []bool {
	if mask == nil {
		mask = make([]bool, c.n)
	}
	mask[i] = true
	return mask
}

// parseAll parses every non-null cell with p into unboxed storage, stopping
// (ok false) at the first cell p rejects.
func parseAll[T any](c *cells, p func(string) (T, bool)) (out []T, mask []bool, ok bool) {
	out = make([]T, c.n)
	for i := range out {
		s, null := c.at(i)
		if null {
			mask = c.mark(mask, i)
		} else if out[i], ok = p(s); !ok {
			return nil, nil, false
		}
	}
	return out, mask, true
}

func parseInt(s string) (int64, bool) {
	x, err := types.ParseInt(s)
	return x, err == nil
}

func parseFloat(s string) (float64, bool) {
	f, err := types.ParseFloat(s)
	return f, err == nil
}

// scalars parses the column into the narrowest scalar domain that holds
// every non-null cell, or returns nil when none does or every cell is null.
// The scalar domains are disjoint except that every int is a float, so the
// first non-null cell names the only candidate, and the one widening there
// can be is int → float.
func (c *cells) scalars() vector.Vector {
	first := 0
	for ; first < c.n; first++ {
		if _, null := c.at(first); !null {
			break
		}
	}
	if first == c.n {
		return nil
	}
	s, _ := c.at(first)
	if _, ok := types.ParseBool(s); ok {
		if out, mask, ok := parseAll(c, types.ParseBool); ok {
			return vector.NewBool(out, mask)
		}
		return nil
	}
	if _, ok := parseInt(s); ok {
		if out, mask, ok := parseAll(c, parseInt); ok {
			return vector.NewInt(out, mask)
		}
		// Some later cell is not an int (or is past int64): the column is
		// float or nothing. The cells already seen are re-read as text, not
		// converted — "-0" is an int zero but a negative float zero.
	}
	if _, ok := parseFloat(s); ok {
		out, mask, ok := parseAll(c, parseFloat)
		if !ok {
			return nil
		}
		for i, f := range out {
			if math.IsNaN(f) { // the Float null, spelled " NaN" or "NAN"
				out[i], mask = 0, c.mark(mask, i)
			}
		}
		return vector.NewFloat(out, mask)
	}
	if _, ok := types.ParseDatetime(s); ok {
		if out, mask, ok := parseAll(c, types.ParseDatetime); ok {
			return vector.NewDatetime(out, mask)
		}
	}
	return nil
}

// category dictionary-encodes a column no scalar domain holds when it is
// low-cardinality — at least 16 non-null rows, fewer than 4096 distinct
// values, at most a tenth as many values as rows: many rows sharing few
// values is the dictionary-encoding sweet spot. The distinct set it collects
// to decide that is the dictionary, in first-appearance order. It returns
// nil for every other column, as soon as the dictionary is too wide for the
// rows there can be.
func (c *cells) category() vector.Vector {
	const minRows, distinctCap = 16, 4096
	if c.n < minRows {
		return nil
	}
	codes := make([]int32, c.n)
	index := make(map[string]int32)
	var dict []string
	var mask []bool
	nonNull := 0
	for i := range codes {
		s, null := c.at(i)
		if null {
			mask = c.mark(mask, i)
			continue
		}
		nonNull++
		code, seen := index[s]
		if !seen {
			if len(dict)+1 >= distinctCap || (len(dict)+1)*10 > c.n {
				return nil
			}
			code = int32(len(dict))
			dict = append(dict, s)
			index[s] = code
		}
		codes[i] = code
	}
	if nonNull < minRows || len(dict)*10 > nonNull {
		return nil
	}
	return vector.NewDict(codes, dict, mask)
}

// Parse applies the parsing function p_d of a declared domain to every
// entry, yielding a typed vector. Entries that fail to parse become nulls,
// matching the paper's treatment of parse errors as the distinguished null
// rather than hard failures during exploration.
func Parse(v vector.Vector, d types.Domain) vector.Vector {
	if v.Domain() == d {
		return v
	}
	b := vector.NewBuilder(d, v.Len())
	// A raw column, a selection view of one or a chunk of them is read as
	// the induction reads it — null literals are null — so a declared parse
	// and an induced one agree cell for cell.
	var c cells
	if !c.read(v) {
		// Re-render through Σ* then parse: TRANSPOSE of heterogeneous
		// data goes through this path.
		for i := 0; i < v.Len(); i++ {
			b.Append(v.Value(i))
		}
		return b.Build()
	}
	for i := 0; i < c.n; i++ {
		if s, null := c.at(i); null {
			b.AppendNull()
		} else {
			b.AppendString(s)
		}
	}
	return b.Build()
}

// Cache memoizes induction and parse results per column identity (Section
// 5.1.2, "Reusing Type Information"). Columns are identified by the pointer
// identity of their vector, which is stable because vectors are immutable.
type Cache struct {
	mu   sync.Mutex
	cols map[vector.Vector]resolved

	hits   atomic.Int64
	misses atomic.Int64
}

// resolved is what the cache knows of one column. An induction publishes
// domain and typed together, from its one pass; a declared-domain parse
// leaves domain alone.
type resolved struct {
	domain types.Domain  // S(v); Unspecified until an induction ran
	typed  vector.Vector // the latest parse of v
}

// NewCache returns an empty induction cache.
func NewCache() *Cache {
	return &Cache{cols: make(map[vector.Vector]resolved)}
}

func (c *Cache) lookup(v vector.Vector) resolved {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cols[v]
}

// Induce returns the cached domain for v. On a miss it induces and parses v
// in one pass and caches both, so the Parse that follows is a hit.
func (c *Cache) Induce(v vector.Vector) types.Domain {
	if v.Domain() != types.Object && v.Domain() != types.Unspecified {
		return v.Domain()
	}
	if r := c.lookup(v); r.domain != types.Unspecified {
		c.hits.Add(1)
		return r.domain
	}
	c.misses.Add(1)
	d, typed := InduceAndParse(v)
	c.mu.Lock()
	// Of two tasks racing to induce one column the first to finish
	// publishes, so every caller shares one typed vector.
	if r := c.cols[v]; r.domain == types.Unspecified {
		c.cols[v] = resolved{domain: d, typed: typed}
	}
	c.mu.Unlock()
	return d
}

// Parse returns the cached typed form of v under domain d, parsing and
// caching on miss.
func (c *Cache) Parse(v vector.Vector, d types.Domain) vector.Vector {
	if v.Domain() == d {
		return v
	}
	if r := c.lookup(v); r.typed != nil && r.typed.Domain() == d {
		c.hits.Add(1)
		return r.typed
	}
	c.misses.Add(1)
	p := Parse(v, d)
	c.mu.Lock()
	r := c.cols[v]
	r.typed = p
	c.cols[v] = r
	c.mu.Unlock()
	return p
}

// Resolved returns the typed form of v the cache already holds, without
// inducing or parsing anything: the parse under the declared domain, or,
// when declared is Unspecified, the one an induction published.
func (c *Cache) Resolved(v vector.Vector, declared types.Domain) (vector.Vector, bool) {
	r := c.lookup(v)
	if declared == types.Unspecified {
		declared = r.domain
	}
	if r.typed == nil || r.typed.Domain() != declared {
		return nil, false
	}
	return r.typed, true
}

// Stats returns the cache hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Invalidate drops all cached results (used when a session's memory budget
// forces metadata eviction).
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cols = make(map[vector.Vector]resolved)
}
