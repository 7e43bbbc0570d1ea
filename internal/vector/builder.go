package vector

import (
	"repro/internal/types"
)

// Builder accumulates values and produces an immutable Vector in a fixed
// domain. Appending a value outside the domain coerces it through the
// domain's rendered form; this mirrors the paper's convention that the cell
// array is over Σ* and typed views are parses of it.
type Builder struct {
	dom types.Domain

	strs   []string
	ints   []int64
	floats []float64
	bools  []bool

	codes     []int32
	dict      []string
	dictIndex map[string]int32

	anys []types.Value // Composite domain

	nulls   []bool
	anyNull bool
	n       int
}

// NewBuilder returns a builder for domain d with capacity hint capHint.
// Unspecified builds an Object vector.
func NewBuilder(d types.Domain, capHint int) *Builder {
	if d == types.Unspecified {
		d = types.Object
	}
	b := &Builder{dom: d}
	switch d {
	case types.Object:
		b.strs = make([]string, 0, capHint)
	case types.Int:
		b.ints = make([]int64, 0, capHint)
	case types.Float:
		b.floats = make([]float64, 0, capHint)
	case types.Bool:
		b.bools = make([]bool, 0, capHint)
	case types.Datetime:
		b.ints = make([]int64, 0, capHint)
	case types.Category:
		b.codes = make([]int32, 0, capHint)
		b.dictIndex = make(map[string]int32)
	case types.Composite:
		b.anys = make([]types.Value, 0, capHint)
	}
	b.nulls = make([]bool, 0, capHint)
	return b
}

// NewObjectBuilder returns a builder for the Object domain.
func NewObjectBuilder(capHint int) *Builder { return NewBuilder(types.Object, capHint) }

// Domain returns the domain the builder produces.
func (b *Builder) Domain() types.Domain { return b.dom }

// Len returns the number of values appended so far.
func (b *Builder) Len() int { return b.n }

// AppendNull appends the domain's null.
func (b *Builder) AppendNull() {
	b.anyNull = true
	b.nulls = append(b.nulls, true)
	b.n++
	switch b.dom {
	case types.Object:
		b.strs = append(b.strs, "")
	case types.Int, types.Datetime:
		b.ints = append(b.ints, 0)
	case types.Float:
		b.floats = append(b.floats, 0)
	case types.Bool:
		b.bools = append(b.bools, false)
	case types.Category:
		b.codes = append(b.codes, 0)
	case types.Composite:
		b.anys = append(b.anys, types.NullValue(types.Composite))
	}
}

// Append appends v, coercing across domains where a faithful coercion
// exists (numeric widening, anything → Object via rendering) and appending
// null when none does.
func (b *Builder) Append(v types.Value) {
	if b.dom == types.Composite {
		b.anys = append(b.anys, v)
		b.nulls = append(b.nulls, v.IsNull())
		if v.IsNull() {
			b.anyNull = true
		}
		b.n++
		return
	}
	if v.IsNull() {
		b.AppendNull()
		return
	}
	switch b.dom {
	case types.Object:
		b.appendStr(v.Str())
	case types.Category:
		b.appendCategory(v.Str())
	case types.Int:
		switch v.Domain() {
		case types.Int, types.Datetime:
			b.appendInt(v.Int())
		case types.Float:
			b.appendInt(int64(v.Float()))
		case types.Bool:
			if v.Bool() {
				b.appendInt(1)
			} else {
				b.appendInt(0)
			}
		default:
			if parsed, err := types.Int.Parse(v.Str()); err == nil && !parsed.IsNull() {
				b.appendInt(parsed.Int())
			} else {
				b.AppendNull()
			}
		}
	case types.Float:
		switch v.Domain() {
		case types.Int, types.Float, types.Bool:
			b.appendFloat(v.Float())
		default:
			if parsed, err := types.Float.Parse(v.Str()); err == nil && !parsed.IsNull() {
				b.appendFloat(parsed.Float())
			} else {
				b.AppendNull()
			}
		}
	case types.Bool:
		switch v.Domain() {
		case types.Bool:
			b.appendBool(v.Bool())
		case types.Int:
			b.appendBool(v.Int() != 0)
		case types.Float:
			b.appendBool(v.Float() != 0)
		default:
			if parsed, err := types.Bool.Parse(v.Str()); err == nil && !parsed.IsNull() {
				b.appendBool(parsed.Bool())
			} else {
				b.AppendNull()
			}
		}
	case types.Datetime:
		switch v.Domain() {
		case types.Datetime:
			b.appendInt(v.Int())
		default:
			if parsed, err := types.Datetime.Parse(v.Str()); err == nil && !parsed.IsNull() {
				b.appendInt(parsed.Int())
			} else {
				b.AppendNull()
			}
		}
	}
}

// AppendString appends a raw string, treating null literals as null. For
// Object builders this is the zero-parse fast path used during ingest.
func (b *Builder) AppendString(s string) {
	if types.IsNullLiteral(s) {
		b.AppendNull()
		return
	}
	switch b.dom {
	case types.Object:
		b.appendStr(s)
	case types.Category:
		b.appendCategory(s)
	default:
		v, err := b.dom.Parse(s)
		if err != nil {
			b.AppendNull()
			return
		}
		b.Append(v)
	}
}

// AppendInt appends an int64 directly (Int and Datetime builders).
func (b *Builder) AppendInt(i int64) { b.appendInt(i) }

// AppendFloat appends a float64 directly (Float builders).
func (b *Builder) AppendFloat(f float64) { b.appendFloat(f) }

func (b *Builder) appendStr(s string) {
	b.strs = append(b.strs, s)
	b.nulls = append(b.nulls, false)
	b.n++
}

func (b *Builder) appendCategory(s string) {
	c, ok := b.dictIndex[s]
	if !ok {
		c = int32(len(b.dict))
		b.dict = append(b.dict, s)
		b.dictIndex[s] = c
	}
	b.codes = append(b.codes, c)
	b.nulls = append(b.nulls, false)
	b.n++
}

func (b *Builder) appendInt(i int64) {
	b.ints = append(b.ints, i)
	b.nulls = append(b.nulls, false)
	b.n++
}

func (b *Builder) appendFloat(f float64) {
	b.floats = append(b.floats, f)
	b.nulls = append(b.nulls, false)
	b.n++
}

func (b *Builder) appendBool(v bool) {
	b.bools = append(b.bools, v)
	b.nulls = append(b.nulls, false)
	b.n++
}

// Build finalizes the builder into an immutable Vector. The builder must
// not be used afterwards.
func (b *Builder) Build() Vector {
	var nulls []bool
	if b.anyNull {
		nulls = b.nulls
	}
	switch b.dom {
	case types.Object:
		return &Object{data: b.strs, nulls: nulls}
	case types.Int:
		return &Int{data: b.ints, nulls: nulls}
	case types.Float:
		return &Float{data: b.floats, nulls: nulls}
	case types.Bool:
		return &Bool{data: b.bools, nulls: nulls}
	case types.Datetime:
		return &Datetime{data: b.ints, nulls: nulls}
	case types.Category:
		return &Dict{codes: b.codes, dict: b.dict, nulls: nulls}
	case types.Composite:
		return &Any{data: b.anys}
	}
	return &Object{data: b.strs, nulls: nulls}
}
