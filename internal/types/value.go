// Package types defines the scalar value system used throughout prefdb:
// dynamically typed relational values, their ordering and hashing, and the
// score-confidence pair ⟨S, C⟩ that extends tuples into p-relation rows.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
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
// Every cell of every tuple is a Value, so its size is the size of the
// executor's working set: the layout packs each kind's payload into one
// word and is 24 bytes on 64-bit targets.
//
//   - n holds the INT payload, the FLOAT bits (math.Float64bits), the BOOL
//     as 0/1, or a TEXT value's length in bytes.
//   - p is the TEXT value's string data (unsafe.StringData) and nil for
//     every other kind. Strings are immutable and p is a traced pointer,
//     so it keeps the bytes alive exactly as a string header would.
//
// Only this package reads the fields. Struct equality (==) compares the
// string's address, not its bytes, and an INT never equals an integral
// FLOAT that way, so callers compare with Equal/Compare and key by Hash
// (the valueconv analyzer enforces both).
type Value struct {
	kind Kind
	n    uint64
	p    unsafe.Pointer
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a float value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value {
	return Value{kind: KindString, n: uint64(len(v)), p: unsafe.Pointer(unsafe.StringData(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
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
	return int64(v.n)
}

// AsFloat returns the float payload, converting integers. It panics for
// non-numeric kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.flt()
	case KindInt:
		return float64(int64(v.n))
	default:
		panic(fmt.Sprintf("types: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: AsString on %s value", v.kind))
	}
	return v.str()
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: AsBool on %s value", v.kind))
	}
	return v.n != 0
}

// str rebuilds a TEXT payload; the caller has checked the kind.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// flt reads a FLOAT payload; the caller has checked the kind.
func (v Value) flt() float64 { return math.Float64frombits(v.n) }

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.flt(), 'g', -1, 64)
	case KindString:
		return v.str()
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// GoString renders the value as the Go expression that builds it, exact
// to the payload (a FLOAT by its bits), so %#v output tells kinds and
// payloads apart and never shows the string data's address.
func (v Value) GoString() string {
	switch v.kind {
	case KindNull:
		return "types.Null()"
	case KindInt:
		return "types.Int(" + strconv.FormatInt(int64(v.n), 10) + ")"
	case KindFloat:
		return "types.Float(math.Float64frombits(0x" + strconv.FormatUint(v.n, 16) + "))"
	case KindString:
		return "types.Str(" + strconv.Quote(v.str()) + ")"
	case KindBool:
		return "types.Bool(" + strconv.FormatBool(v.n != 0) + ")"
	default:
		return "?"
	}
}

// SQL renders the value as a SQL literal (strings quoted, embedded quotes
// escaped by doubling, so the output re-parses to the same value).
func (v Value) SQL() string {
	if v.kind == KindString {
		return "'" + strings.ReplaceAll(v.str(), "'", "''") + "'"
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
// An INT and a FLOAT compare exactly (CmpIntFloat), never through a
// rounded float64.
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
	if a.kind != b.kind {
		switch {
		case a.kind == KindInt && b.kind == KindFloat:
			return CmpIntFloat(int64(a.n), b.flt()), true
		case a.kind == KindFloat && b.kind == KindInt:
			return -CmpIntFloat(int64(b.n), a.flt()), true
		}
		// Incomparable kinds: order deterministically by kind for sorting
		// stability, but flag as incomparable.
		return cmpInt(int64(a.kind), int64(b.kind)), false
	}
	switch a.kind {
	case KindInt:
		return cmpInt(int64(a.n), int64(b.n)), true
	case KindFloat:
		return cmpFloat(a.flt(), b.flt()), true
	case KindString:
		return strings.Compare(a.str(), b.str()), true
	case KindBool:
		return cmpInt(int64(a.n), int64(b.n)), true
	default:
		return 0, false
	}
}

// cmpFloat orders two floats: -1, 0, +1. NaN is neither less nor greater
// than anything, so it compares 0 (equal) to every number.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CmpIntFloat orders an INT against a FLOAT exactly: -1, 0, +1. Unlike
// cmpFloat(float64(i), f) it never rounds i, so 2^53+1 is greater than
// the FLOAT 2^53. NaN compares 0, as in cmpFloat. Every kernel that
// compares an INT with a FLOAT uses it, so batch and row paths agree.
func CmpIntFloat(i int64, f float64) int {
	switch {
	case f != f: // NaN
		return 0
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	// f is in [-2^63, 2^63), so its integer part converts exactly.
	t := math.Trunc(f)
	if c := cmpInt(i, int64(t)); c != 0 {
		return c
	}
	// Same integer part: the fraction decides.
	return cmpFloat(t, f)
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
// identically: an INT and a FLOAT of the same number collide, since they
// compare equal.
//
// Numerics hash one 64-bit word. Below 1e18 in magnitude an INT hashes
// its own int64 and an integral FLOAT hashes int64(f); from 1e18 up both
// hash the float64 bits (an INT converting first), which is exact for
// every INT a FLOAT can equal, and every other FLOAT hashes its bits.
// An INT no FLOAT equals (2^53+1, say) below 1e18 thus keeps a hash of
// its own instead of its rounded neighbour's.
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
		bits := v.n
		if v.kind == KindInt {
			if i := int64(v.n); i >= 1e18 || i <= -1e18 {
				bits = math.Float64bits(float64(i))
			}
		} else if f := v.flt(); f == math.Trunc(f) && math.Abs(f) < 1e18 {
			bits = uint64(int64(f))
		}
		h = (h ^ 1) * fnvPrime64
		for i := 0; i < 64; i += 8 {
			h = (h ^ (bits >> i & 0xff)) * fnvPrime64
		}
	case KindString:
		h = (h ^ 2) * fnvPrime64
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime64
		}
	case KindBool:
		h = (h ^ 3) * fnvPrime64
		h = (h ^ v.n) * fnvPrime64
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
