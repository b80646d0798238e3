package types

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize pins the 24-byte layout on 64-bit targets: the kind, one
// payload word and one string-data pointer.
func TestValueSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned on 64-bit targets")
	}
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestPayloadRoundTrips reads every kind's edge payloads back exactly.
func TestPayloadRoundTrips(t *testing.T) {
	for _, i := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 1<<53 + 1, math.MaxInt64} {
		if v := Int(i); v.Kind() != KindInt || v.AsInt() != i {
			t.Errorf("Int(%d) reads back %v (%s)", i, v, v.Kind())
		}
	}
	nanBits := uint64(0x7ff8_0000_dead_beef)
	for _, bits := range []uint64{
		math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		nanBits, math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(math.MaxFloat64),
	} {
		v := Float(math.Float64frombits(bits))
		if v.Kind() != KindFloat || math.Float64bits(v.AsFloat()) != bits {
			t.Errorf("Float(bits %#x) reads back bits %#x", bits, math.Float64bits(v.AsFloat()))
		}
	}
	for _, b := range []bool{false, true} {
		if v := Bool(b); v.Kind() != KindBool || v.AsBool() != b {
			t.Errorf("Bool(%v) reads back %v", b, v)
		}
	}
	empty := Str("")
	if empty.Kind() != KindString || empty.IsNull() || empty.AsString() != "" {
		t.Errorf("Str(\"\") = %#v, want an empty TEXT value", empty)
	}
	if empty.Equal(Null()) || empty.Hash() == Null().Hash() {
		t.Error("the empty string must not equal or hash as NULL")
	}
	if !Str("ab").Equal(Str(strings.Clone("ab"))) {
		t.Error("equal strings at different addresses must be Equal")
	}
}

// TestSubstringOutlivesSource keeps a Value over a substring of a large
// runtime-built string, drops the source and collects: the Value's
// string-data pointer alone must keep the bytes alive.
func TestSubstringOutlivesSource(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 1<<16; i++ {
		b.WriteByte(byte('a' + i%26))
	}
	src := b.String()
	want := strings.Clone(src[40000:40010])
	v := Str(src[40000:40010])
	src = ""
	b.Reset()
	runtime.GC()
	runtime.GC()
	// Churn the heap so freed memory would be reused.
	junk := make([][]byte, 64)
	for i := range junk {
		junk[i] = make([]byte, 1<<12)
		for j := range junk[i] {
			junk[i][j] = 'z'
		}
	}
	runtime.KeepAlive(junk)
	if got := v.AsString(); got != want {
		t.Fatalf("substring reads %q after GC, want %q", got, want)
	}
	if v.Hash() != Str(want).Hash() || !v.Equal(Str(want)) {
		t.Fatal("substring Value no longer hashes or compares as its bytes")
	}
}

// TestGoString pins the %#v form the row-keyed test helpers rely on:
// kinds and payloads are told apart, floats bit by bit, and no address
// is printed.
func TestGoString(t *testing.T) {
	cases := map[string]Value{
		"types.Int(1)": Int(1),
		"types.Float(math.Float64frombits(0x3ff0000000000000))": Float(1),
		`types.Str("1")`:   Str("1"),
		"types.Bool(true)": Bool(true),
		"types.Null()":     Null(),
		`types.Str("")`:    Str(""),
	}
	for want, v := range cases {
		if got := v.GoString(); got != want {
			t.Errorf("GoString = %s, want %s", got, want)
		}
	}
	zero, negZero := Float(0).GoString(), Float(math.Copysign(0, -1)).GoString()
	if zero == negZero {
		t.Errorf("0 and -0 print alike: %s", zero)
	}
	nan1, nan2 := Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0x7ff8000000000002))
	if nan1.GoString() == nan2.GoString() {
		t.Errorf("distinct NaN payloads print alike: %s", nan1.GoString())
	}
	if a, b := Str(strings.Clone("x")).GoString(), Str("x").GoString(); a != b {
		t.Errorf("equal strings at different addresses print %s and %s", a, b)
	}
}

// TestCompareIntFloatExact pins the exact INT-vs-FLOAT order: an INT is
// never rounded to a float64 first.
func TestCompareIntFloatExact(t *testing.T) {
	const p53 = 1 << 53
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		{p53 + 1, p53, 1},
		{p53, p53, 0},
		{p53 - 1, p53, -1},
		{-(p53 + 1), -p53, -1},
		{math.MaxInt64, 0x1p63, -1},
		{math.MinInt64, -0x1p63, 0},
		{math.MinInt64, math.Inf(-1), 1},
		{math.MaxInt64, math.Inf(1), -1},
		{3, 3.5, -1},
		{4, 3.5, 1},
		{-3, -3.5, 1},
		{-4, -3.5, -1},
		{0, math.Copysign(0, -1), 0},
		{0, -0.5, 1},
		{0, 0.5, -1},
		{1e18, 1e18, 0},
		{1<<62 + 1, 0x1p62, 1},
		{5, math.NaN(), 0}, // NaN compares equal, as in cmpFloat
	}
	for _, c := range cases {
		if got := CmpIntFloat(c.i, c.f); got != c.want {
			t.Errorf("CmpIntFloat(%d, %v) = %d, want %d", c.i, c.f, got, c.want)
		}
		got, ok := Compare(Int(c.i), Float(c.f))
		if !ok || got != c.want {
			t.Errorf("Compare(Int(%d), Float(%v)) = (%d, %v), want (%d, true)", c.i, c.f, got, ok, c.want)
		}
		if got, _ := Compare(Float(c.f), Int(c.i)); got != -c.want {
			t.Errorf("Compare(Float(%v), Int(%d)) = %d, want %d", c.f, c.i, got, -c.want)
		}
	}
	if Int(p53 + 1).Equal(Float(p53)) {
		t.Error("Int(2^53+1) equals Float(2^53)")
	}
	// Wherever float64(i) is exact, the exact order is the float order.
	f := func(i int32, g float64) bool {
		return CmpIntFloat(int64(i), g) == cmpFloat(float64(i), g)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Against an integral FLOAT the order is the INT order of its value.
	h := func(i, j int64) bool {
		fj := float64(j)
		if fj >= 0x1p63 {
			return CmpIntFloat(i, fj) == -1
		}
		return CmpIntFloat(i, fj) == cmpInt(i, int64(fj))
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

// TestEqualImpliesSameHash checks the hash law every hash join, γ and set
// operation relies on, over the numeric edges where a float64 rounds.
func TestEqualImpliesSameHash(t *testing.T) {
	const p53 = 1 << 53
	var vals []Value
	for _, i := range []int64{p53, -p53, p53 + 1, -(p53 + 1), 1e18, -1e18, 1 << 62, math.MinInt64, math.MaxInt64, 0} {
		vals = append(vals, Int(i), Float(float64(i)))
	}
	vals = append(vals, Float(0x1p63), Float(-0x1p63), Float(math.Copysign(0, -1)), Float(math.NaN()))
	for _, a := range vals {
		for _, b := range vals {
			if isNaN(a) != isNaN(b) {
				// Compare keeps NaN equal to every number (CmpFloat), which
				// no hash can follow; NaN only hashes like itself.
				continue
			}
			if a.Equal(b) && a.Hash() != b.Hash() {
				t.Errorf("%#v equals %#v but hashes differently", a, b)
			}
		}
	}
	// INTs no float equals keep hashes of their own below 1e18.
	if Int(p53+1).Hash() == Int(p53).Hash() {
		t.Error("Int(2^53+1) hashes as its rounded neighbour Int(2^53)")
	}
}

func isNaN(v Value) bool { return v.Kind() == KindFloat && math.IsNaN(v.AsFloat()) }
