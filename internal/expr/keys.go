// Key kernels for the direct-column hash join and grouped aggregation:
// HashCols folds typed key vectors into per-row bucket hashes and
// KeyEqCols confirms a probe slot against a build tuple, both with the
// exact semantics of the row path (types.Value.Hash / Value.Equal), so a
// columnar probe lands in the same bucket and accepts the same matches a
// tuple probe would — byte-identical results by construction.
package expr

import "prefdb/internal/types"

// Seed and prime of the row path's key fold (exec's hashCols /
// types.HashTuple): h starts at the seed, then per key column
// h ^= Value.Hash(); h *= prime.
const (
	keySeed  uint64 = 1469598103934665603
	keyPrime uint64 = 1099511628211
)

var nullValueHash = types.Null().Hash()

// KeyScratch carries per-key-column caches across the batches of one
// stream: dictionary-code value hashes keyed on Dict slice identity, so
// consecutive windows over the same segment (or segments snapshotting the
// same shared-dictionary prefix) hash each distinct string once.
type KeyScratch struct {
	dicts  [][]string
	hashes [][]uint64
}

func (ks *KeyScratch) dictHashes(k int, dict []string) []uint64 {
	for len(ks.dicts) <= k {
		ks.dicts = append(ks.dicts, nil)
		ks.hashes = append(ks.hashes, nil)
	}
	if sameDict(ks.dicts[k], dict) {
		return ks.hashes[k]
	}
	h := ks.hashes[k]
	if cap(h) < len(dict) {
		h = make([]uint64, len(dict))
	}
	h = h[:len(dict)]
	for code, s := range dict {
		h[code] = types.Str(s).Hash()
	}
	ks.dicts[k] = dict
	ks.hashes[k] = h
	return h
}

// HashCols computes the combined key hash for every selected slot,
// writing out[j] for sel[j] (len(out) must be >= len(sel)). It matches
// the row path's hashCols fold exactly — Value.Hash per key column folded
// FNV-style — reusing Value.Hash itself for the per-value digests so the
// numeric normalization (integral floats hash as ints) and large-int64
// behaviour collide identically.
func HashCols(cols []types.ColVec, sel []int32, keys []int, out []uint64, ks *KeyScratch) {
	for j := range sel {
		out[j] = keySeed
	}
	for k, c := range keys {
		cv := &cols[c]
		nulls := cv.Nulls
		switch {
		case cv.Ints != nil:
			vec := cv.Ints
			for j, i := range sel {
				vh := nullValueHash
				if nulls == nil || !nulls[i] {
					vh = types.Int(vec[i]).Hash()
				}
				out[j] = (out[j] ^ vh) * keyPrime
			}
		case cv.Floats != nil:
			vec := cv.Floats
			for j, i := range sel {
				vh := nullValueHash
				if nulls == nil || !nulls[i] {
					vh = types.Float(vec[i]).Hash()
				}
				out[j] = (out[j] ^ vh) * keyPrime
			}
		case cv.Codes != nil:
			// One string hash per dictionary code, cached on identity.
			hs := ks.dictHashes(k, cv.Dict)
			codes := cv.Codes
			for j, i := range sel {
				vh := nullValueHash
				if nulls == nil || !nulls[i] {
					vh = hs[codes[i]]
				}
				out[j] = (out[j] ^ vh) * keyPrime
			}
		default: // Bools
			vec := cv.Bools
			for j, i := range sel {
				vh := nullValueHash
				if nulls == nil || !nulls[i] {
					vh = types.Bool(vec[i]).Hash()
				}
				out[j] = (out[j] ^ vh) * keyPrime
			}
		}
	}
}

// ColValue materializes one slot of a window as a types.Value (a small
// value struct — no allocation).
func ColValue(cv *types.ColVec, i int32) types.Value {
	switch {
	case cv.Nulls != nil && cv.Nulls[i]:
		return types.Null()
	case cv.Ints != nil:
		return types.Int(cv.Ints[i])
	case cv.Floats != nil:
		return types.Float(cv.Floats[i])
	case cv.Codes != nil:
		return types.Str(cv.Dict[cv.Codes[i]])
	default: // Bools
		return types.Bool(cv.Bools[i])
	}
}

// KeyEqCols confirms that the probe window's key columns at slot equal
// the build tuple's key values, with exact Value.Equal semantics (NULL
// equals NULL, int-int exact, mixed numerics float-wise).
func KeyEqCols(cols []types.ColVec, slot int32, keys []int, tuple []types.Value, tupleKeys []int) bool {
	for k, c := range keys {
		if !ColValue(&cols[c], slot).Equal(tuple[tupleKeys[k]]) {
			return false
		}
	}
	return true
}
