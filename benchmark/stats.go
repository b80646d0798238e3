package main

import (
	"math"
	"math/bits"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean returns the geometric mean of the positive entries of xs (the
// TPC-H style aggregate for heterogeneous statement classes: a 10 % move
// on a 9 ms class weighs as much as a 10 % move on a 390 ms class).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is a/b with 0 for an empty denominator (counts that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint summarizes one statement result order-insensitively: the row
// count, a hash over whole rows (tuple + score + confidence) and a hash over
// the ⟨score, conf⟩ multiset alone. TOP k results are compared on the
// multiset only, because rows tied on score may legitimately swap at the
// cut. ordered tracks whether scores arrived non-increasing.
type fingerprint struct {
	Rows    int    `json:"rows"`
	Full    uint64 `json:"full"`
	Scores  uint64 `json:"scores"`
	ordered bool
	last    float64
}

func newFingerprint() fingerprint { return fingerprint{ordered: true, last: math.Inf(1)} }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add folds one row in. Sums of mixed hashes commute, which is what makes
// the fingerprint independent of row order.
func (f *fingerprint) add(tupleHash uint64, score, conf float64, known bool) {
	sc := mix64(math.Float64bits(score)) ^ bits.RotateLeft64(mix64(math.Float64bits(conf)), 17)
	if !known {
		sc = 0x9e3779b97f4a7c15
	}
	f.Rows++
	f.Scores += mix64(sc)
	f.Full += mix64(tupleHash ^ sc)
	if known {
		if score > f.last {
			f.ordered = false
		}
		f.last = score
	}
}

// matches compares against the reference fingerprint of the same statement.
func (f fingerprint) matches(ref fingerprint, scoresOnly bool) bool {
	if f.Rows != ref.Rows || f.Scores != ref.Scores {
		return false
	}
	return scoresOnly || f.Full == ref.Full
}

// combine folds per-statement fingerprints of one class into the single
// value golden.json stores.
func combine(fps []fingerprint) fingerprint {
	out := fingerprint{}
	for i, f := range fps {
		out.Rows += f.Rows
		out.Full += mix64(f.Full + uint64(i))
		out.Scores += mix64(f.Scores + uint64(i))
	}
	return out
}

// scorePair is one ⟨score, conf⟩ for the tolerant cross-mode comparison:
// strategies add the same contributions in different orders, so the last
// bit of a three-preference sum may differ between modes.
type scorePair struct {
	score, conf float64
	known       bool
}

func sameScores(a, b []scorePair) bool {
	if len(a) != len(b) {
		return false
	}
	sortPairs(a)
	sortPairs(b)
	for i := range a {
		if a[i].known != b[i].known || !approx(a[i].score, b[i].score) || !approx(a[i].conf, b[i].conf) {
			return false
		}
	}
	return true
}

// sortPairs orders by score rounded to the comparison tolerance, then by
// confidence, so that two sums differing in the last bit sort alike.
func sortPairs(p []scorePair) {
	key := func(x float64) float64 { return math.Round(x * 1e9) }
	sort.Slice(p, func(i, j int) bool {
		if p[i].known != p[j].known {
			return p[i].known
		}
		if a, b := key(p[i].score), key(p[j].score); a != b {
			return a < b
		}
		return p[i].conf < p[j].conf
	})
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// rng is splitmix64: every generated input (events rows, statement
// constants) derives from -seed through it.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng { return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + stream} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
