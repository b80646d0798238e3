// Package types defines the scalar value system used throughout prefdb:
// dynamically typed relational values, their ordering and hashing, and the
// score-confidence pair ⟨S, C⟩ that extends tuples into p-relation rows.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the SQL NULL / absent value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed relational scalar. The zero Value is NULL.
//
// Value is a small value type (no pointers except the string header) so
// tuples can be stored as []Value without per-cell allocation.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the float payload, converting integers. It panics for
// non-numeric kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("types: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: AsString on %s value", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal (strings quoted, embedded quotes
// escaped by doubling, so the output re-parses to the same value).
func (v Value) SQL() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}

// Equal reports whether two values are equal. NULL equals only NULL here
// (useful for set semantics); expression evaluation applies SQL three-valued
// logic separately.
func (v Value) Equal(o Value) bool {
	c, ok := Compare(v, o)
	return ok && c == 0
}

// Compare orders two values: -1, 0, +1. The boolean result is false when the
// values are incomparable (e.g. string vs int, or either side NULL while the
// other is not). NULLs order equal to each other and before everything else.
func Compare(a, b Value) (int, bool) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0, true
		case a.kind == KindNull:
			return -1, false
		default:
			return 1, false
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			return cmpInt(a.i, b.i), true
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.kind != b.kind {
		// Incomparable kinds: order deterministically by kind for sorting
		// stability, but flag as incomparable.
		return cmpInt(int64(a.kind), int64(b.kind)), false
	}
	switch a.kind {
	case KindString:
		switch {
		case a.s < b.s:
			return -1, true
		case a.s > b.s:
			return 1, true
		default:
			return 0, true
		}
	case KindBool:
		return cmpInt(a.i, b.i), true
	default:
		return 0, false
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// FNV-1a constants (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash returns a 64-bit hash of the value, such that Equal values hash
// identically (ints and floats representing the same number collide, since
// they compare equal).
//
// The digest is the FNV-1a hash of a tag byte followed by the payload
// (little-endian for numerics), inlined so the hot paths — hash joins,
// dedup, set operations — never allocate a hasher.
func (v Value) Hash() uint64 {
	h := fnvOffset64
	switch v.kind {
	case KindNull:
		h = (h ^ 0) * fnvPrime64
	case KindInt, KindFloat:
		// Normalize numerics: integral floats hash as ints.
		f := v.AsFloat()
		var bits uint64
		if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e18 {
			bits = uint64(int64(f))
		} else {
			bits = math.Float64bits(f)
		}
		h = (h ^ 1) * fnvPrime64
		for i := 0; i < 64; i += 8 {
			h = (h ^ (bits >> i & 0xff)) * fnvPrime64
		}
	case KindString:
		h = (h ^ 2) * fnvPrime64
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime64
		}
	case KindBool:
		h = (h ^ 3) * fnvPrime64
		h = (h ^ uint64(byte(v.i))) * fnvPrime64
	}
	return h
}

// HashTuple hashes a sequence of values (order-sensitive).
func HashTuple(vs []Value) uint64 {
	h := uint64(1469598103934665603) // seed (kept from the original implementation)
	for _, v := range vs {
		h ^= v.Hash()
		h *= fnvPrime64
	}
	return h
}

// TupleEqual reports element-wise equality of two tuples.
func TupleEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// CompareTuples orders tuples lexicographically.
func CompareTuples(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c, _ := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}
