// Package types defines the value domains of the dataframe data model.
//
// Following Section 4.2 of "Towards Scalable Dataframe Systems" (Petersohn et
// al., VLDB 2020), dataframe cells come from a known set of domains
// Dom = {Σ*, int, float, bool, category} (plus datetime, which the paper
// notes is common in practice). Each domain contains a distinguished null
// value and a parsing function p_i : Σ* → dom_i that interprets raw strings
// as domain values.
package types

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Domain identifies one of the known value domains Dom.
//
// Unspecified is not itself a domain: it marks a column whose domain has not
// yet been induced by the schema-induction function S (see internal/schema).
type Domain int

const (
	// Unspecified marks a column whose domain is yet to be induced.
	Unspecified Domain = iota
	// Object is Σ*, the set of finite strings: the default, uninterpreted
	// domain.
	Object
	// Int is the domain of 64-bit signed integers.
	Int
	// Float is the domain of 64-bit floating point numbers.
	Float
	// Bool is the boolean domain.
	Bool
	// Category is a string domain with few distinct values, dictionary
	// encoded by the vector layer.
	Category
	// Datetime is the domain of timestamps, stored as Unix nanoseconds.
	Datetime
	// Composite is the domain of composite cell values produced by
	// GROUPBY's collect aggregation (Section 4.3): a cell holding a whole
	// sub-dataframe. It is transient — composite cells are consumed by a
	// following MAP (as in the pivot plan of Figure 6) rather than stored.
	Composite

	numDomains
)

// NumDomains is the count of concrete domains (excluding Unspecified).
const NumDomains = int(numDomains) - 1

var domainNames = [...]string{
	Unspecified: "unspecified",
	Object:      "object",
	Int:         "int",
	Float:       "float",
	Bool:        "bool",
	Category:    "category",
	Datetime:    "datetime",
	Composite:   "composite",
}

// String returns the lower-case name of the domain.
func (d Domain) String() string {
	if d < 0 || int(d) >= len(domainNames) {
		return fmt.Sprintf("domain(%d)", int(d))
	}
	return domainNames[d]
}

// Valid reports whether d is a concrete domain (not Unspecified and in
// range).
func (d Domain) Valid() bool { return d > Unspecified && d < numDomains }

// Numeric reports whether values of the domain participate in arithmetic.
func (d Domain) Numeric() bool { return d == Int || d == Float || d == Bool }

// ParseDomain maps a domain name (as produced by Domain.String) back to the
// Domain. It returns Unspecified and false for unknown names.
func ParseDomain(name string) (Domain, bool) {
	for d, n := range domainNames {
		if n == name {
			return Domain(d), true
		}
	}
	return Unspecified, false
}

// IsNullLiteral reports whether the raw string s spells the distinguished
// null value: one of "", NA, N/A, NaN, nan, null, NULL, None, <NA>. Every
// parsing function consults it, cell by cell on a CSV scan, so it switches
// on length before comparing instead of hashing s into a set.
func IsNullLiteral(s string) bool {
	switch len(s) {
	case 0:
		return true
	case 2:
		return s == "NA"
	case 3:
		return s == "N/A" || s == "NaN" || s == "nan"
	case 4:
		return s == "null" || s == "NULL" || s == "None" || s == "<NA>"
	}
	return false
}

// datetimeLayouts are the timestamp formats the Datetime parsing function
// accepts, tried in order.
var datetimeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02 15:04:05",
	"2006-01-02T15:04:05",
	"2006-01-02",
	"01/02/2006 15:04:05",
	"01/02/2006",
}

// The unboxed parsing functions p_i. Domain.Parse boxes their results and
// schema induction calls them directly, so a string is a member of a domain
// under exactly one definition.

// ParseInt is p_int.
func ParseInt(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
}

// ParseFloat is p_float. It accepts every spelling strconv does, so a NaN
// spelled other than as a null literal parses — to the Float null.
func ParseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// ParseBool is p_bool. Only true/false spellings are boolean literals:
// accepting yes/no or 0/1 would make schema induction mis-type string and
// integer columns (pandas reads "Yes"/"No" as object and 0/1 as int64).
func ParseBool(s string) (v, ok bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "t":
		return true, true
	case "false", "f":
		return false, true
	}
	return false, false
}

// ParseDatetime is p_datetime, yielding Unix nanoseconds.
func ParseDatetime(s string) (nanos int64, ok bool) {
	trimmed := strings.TrimSpace(s)
	for _, layout := range datetimeLayouts {
		if t, err := time.Parse(layout, trimmed); err == nil {
			return t.UnixNano(), true
		}
	}
	return 0, false
}

// Parse applies the domain's parsing function p_i to the raw string s,
// yielding a Value in the domain (possibly the distinguished null). Parse
// returns an error when s is neither null nor a member of the domain.
func (d Domain) Parse(s string) (Value, error) {
	if IsNullLiteral(s) {
		return NullValue(d), nil
	}
	switch d {
	case Object:
		return String(s), nil
	case Category:
		return CategoryValue(s), nil
	case Int:
		i, err := ParseInt(s)
		if err != nil {
			return NullValue(d), fmt.Errorf("parse %q as int: %w", s, err)
		}
		return IntValue(i), nil
	case Float:
		f, err := ParseFloat(s)
		if err != nil {
			return NullValue(d), fmt.Errorf("parse %q as float: %w", s, err)
		}
		return FloatValue(f), nil
	case Bool:
		b, ok := ParseBool(s)
		if !ok {
			return NullValue(d), fmt.Errorf("parse %q as bool: not a boolean literal", s)
		}
		return BoolValue(b), nil
	case Datetime:
		ns, ok := ParseDatetime(s)
		if !ok {
			return NullValue(d), fmt.Errorf("parse %q as datetime: no known layout", s)
		}
		return DatetimeFromNanos(ns), nil
	case Unspecified:
		return String(s), nil
	case Composite:
		return Value{}, fmt.Errorf("parse %q: composite cells are not parseable from Σ*", s)
	default:
		return Value{}, fmt.Errorf("parse into invalid domain %v", d)
	}
}
