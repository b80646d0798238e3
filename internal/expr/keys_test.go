package expr

import (
	"math/rand"
	"testing"

	"prefdb/internal/types"
)

// keyFixture builds one window per ColVec form — dense ints, floats (with
// integral values, exercising the numeric hash normalization), dictionary
// codes and bools, some with NULL slots — plus the
// per-slot types.Value each window is expected to decode to.
func keyFixture(n int, rng *rand.Rand) (cols []types.ColVec, vals [][]types.Value) {
	dict := []string{"ash", "birch", "cedar", "oak"}

	addVals := func(cv types.ColVec, vs []types.Value) {
		cols = append(cols, cv)
		vals = append(vals, vs)
	}

	{ // dense ints, every 7th NULL
		ints := make([]int64, n)
		nulls := make([]bool, n)
		vs := make([]types.Value, n)
		for i := range ints {
			ints[i] = rng.Int63n(1000) - 500
			vs[i] = types.Int(ints[i])
			if i%7 == 3 {
				nulls[i] = true
				vs[i] = types.Null()
			}
		}
		addVals(types.ColVec{Ints: ints, Nulls: nulls}, vs)
	}
	{ // floats, half integral (must hash like their int)
		fs := make([]float64, n)
		vs := make([]types.Value, n)
		for i := range fs {
			fs[i] = float64(rng.Intn(50))
			if i%2 == 0 {
				fs[i] += 0.25
			}
			vs[i] = types.Float(fs[i])
		}
		addVals(types.ColVec{Floats: fs}, vs)
	}
	{ // dictionary codes
		codes := make([]int32, n)
		nulls := make([]bool, n)
		vs := make([]types.Value, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(len(dict)))
			vs[i] = types.Str(dict[codes[i]])
			if i%11 == 5 {
				nulls[i] = true
				vs[i] = types.Null()
			}
		}
		addVals(types.ColVec{Codes: codes, Dict: dict, Nulls: nulls}, vs)
	}
	{ // bools
		bs := make([]bool, n)
		vs := make([]types.Value, n)
		for i := range bs {
			bs[i] = rng.Intn(2) == 0
			vs[i] = types.Bool(bs[i])
		}
		addVals(types.ColVec{Bools: bs}, vs)
	}
	return cols, vals
}

// refHash is the row path's key fold (exec's hashCols): seed, then per key
// column h ^= Value.Hash(); h *= prime.
func refHash(vals [][]types.Value, keys []int, i int32) uint64 {
	h := keySeed
	for _, c := range keys {
		h = (h ^ vals[c][i].Hash()) * keyPrime
	}
	return h
}

// TestHashColsMatchesRowFold pins the tentpole equivalence at the unit
// level: for every window form (dense, dictionary, with and without
// NULLs) and several key combinations, HashCols computes exactly
// the row path's per-tuple fold — on full and on sparse ascending
// selection vectors.
func TestHashColsMatchesRowFold(t *testing.T) {
	const n = 192
	rng := rand.New(rand.NewSource(7))
	cols, vals := keyFixture(n, rng)

	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	var sparse []int32
	for i := 0; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}

	keySets := [][]int{
		{0}, {1}, {2}, {3},
		{0, 2}, {1, 3}, {2, 3}, {0, 1, 2, 3},
	}
	for _, keys := range keySets {
		for name, sel := range map[string][]int32{"full": full, "sparse": sparse} {
			var ks KeyScratch
			out := make([]uint64, len(sel))
			HashCols(cols, sel, keys, out, &ks)
			for j, i := range sel {
				if want := refHash(vals, keys, i); out[j] != want {
					t.Fatalf("keys %v %s slot %d: hash %#x, want %#x (value %v)",
						keys, name, i, out[j], want, vals[keys[0]][i])
				}
			}
			// Second batch over the same windows: the dictionary hash cache
			// must hit (same identity) and still agree.
			out2 := make([]uint64, len(sel))
			HashCols(cols, sel, keys, out2, &ks)
			for j := range out {
				if out[j] != out2[j] {
					t.Fatalf("keys %v %s: cached pass diverged at %d", keys, name, j)
				}
			}
		}
	}
}

// TestColValueDecodesEveryForm pins slot materialization: ColValue must
// yield the exact value (and kind) for every window form at every slot.
func TestColValueDecodesEveryForm(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(11))
	cols, vals := keyFixture(n, rng)
	for c := range cols {
		for i := int32(0); i < n; i++ {
			v := ColValue(&cols[c], i)
			if !v.Equal(vals[c][i]) || v.Kind() != vals[c][i].Kind() {
				t.Fatalf("col %d slot %d: decoded %v (%v), want %v (%v)",
					c, i, v, v.Kind(), vals[c][i], vals[c][i].Kind())
			}
		}
	}
}

// TestKeyEqCols pins probe confirmation against Value.Equal semantics:
// NULL equals NULL, int-int exact, mixed numerics float-wise, and any
// mismatching column rejects.
func TestKeyEqCols(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(13))
	cols, vals := keyFixture(n, rng)
	keys := []int{0, 2, 3}
	tupleKeys := []int{0, 1, 2}
	for i := int32(0); i < n; i++ {
		tuple := make([]types.Value, len(keys))
		for k, c := range keys {
			tuple[k] = vals[c][i]
		}
		if !KeyEqCols(cols, i, keys, tuple, tupleKeys) {
			t.Fatalf("slot %d: exact tuple rejected", i)
		}
		// Perturb one key: must reject.
		tuple[1] = types.Str("no-such-string")
		if KeyEqCols(cols, i, keys, tuple, tupleKeys) {
			t.Fatalf("slot %d: perturbed tuple accepted", i)
		}
	}
	// Mixed-numeric equality: an int build key equals the float probe
	// value 3.0 under Value.Equal; KeyEqCols must agree.
	fcols := []types.ColVec{{Floats: []float64{3.0}}}
	if !KeyEqCols(fcols, 0, []int{0}, []types.Value{types.Int(3)}, []int{0}) {
		t.Fatal("int 3 did not match float 3.0")
	}
	if KeyEqCols(fcols, 0, []int{0}, []types.Value{types.Int(4)}, []int{0}) {
		t.Fatal("int 4 matched float 3.0")
	}
}

// TestHashColsIntegralFloatCollides pins the normalization corner: an
// integral float must land in the same bucket as the equal int, since
// Value.Equal would accept the pair at confirmation time.
func TestHashColsIntegralFloatCollides(t *testing.T) {
	icols := []types.ColVec{{Ints: []int64{42}}}
	fcols := []types.ColVec{{Floats: []float64{42}}}
	var ks KeyScratch
	iout, fout := make([]uint64, 1), make([]uint64, 1)
	HashCols(icols, []int32{0}, []int{0}, iout, &ks)
	HashCols(fcols, []int32{0}, []int{0}, fout, &ks)
	if iout[0] != fout[0] {
		t.Fatalf("int 42 hashes %#x, float 42.0 hashes %#x; equal values must share a bucket", iout[0], fout[0])
	}
}
