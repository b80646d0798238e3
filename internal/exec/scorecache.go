// Preference scoring cache (two levels).
//
// The prefer operator's ⟨S,C⟩ contribution for a tuple depends only on the
// tuple's projection onto the columns the preference reads
// (cond.Columns() ∪ score.Columns()): tuples that agree there get the same
// pair. When that projection has few distinct values — the GBU "group"
// observation of the paper — memoizing the contribution per distinct key
// replaces most expression evaluations with a hash lookup. The optimizer
// decides where that pays: a prefer operator memoizes exactly when its
// plan node carries Prefer.CacheHint.
//
// Level 1 is a per-query memo (scoreMemo): each prefer operator owns a
// private bounded hash table so lookups take no locks. When the bound is exceeded new keys degrade to
// direct evaluation (existing entries keep serving hits).
//
// Level 2 is a cross-query dictionary (ScoreDict): the engine keeps one per
// (preference, column-set) for prepared statements and hands it to the
// executor via DictFor; queries consult it under an RWMutex on a local miss
// and publish what they compute. The engine invalidates a dictionary by
// dropping it when any referenced table's catalog version moves (see
// engine/dicts.go).
//
// Keys are canonicalized by sorting the projection columns by (name,
// ordinal), so the same preference produces the same key tuples across
// plans with different schema layouts (e.g. GBU group inputs vs FtP's wide
// R_NP) and dictionary entries are shared between them.
package exec

import (
	"sort"
	"sync"

	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

const (
	// scoreMemoLimit bounds a per-operator level-1 memo. Beyond it new keys
	// evaluate directly; 64k entries keep the memo useful for any key set
	// the heuristic would enable caching for.
	scoreMemoLimit = 1 << 16
	// scoreDictLimit bounds a cross-query level-2 dictionary.
	scoreDictLimit = 1 << 17
)

// memoEntry is one cached key → contribution binding. has=false records
// "no contribution" (condition false, or score NULL/non-numeric), which is
// as expensive to recompute as a hit and therefore worth caching too.
type memoEntry struct {
	key []types.Value
	sc  types.SC
	has bool
}

// scoreMemo is the level-1 per-query memo. It is single-goroutine state,
// one per prefer operator.
type scoreMemo struct {
	cond  *expr.Compiled
	score *expr.Compiled
	conf  float64
	// cols are the key projection ordinals, sorted canonically.
	cols []int
	// dict is the shared level-2 dictionary, or nil outside prepared runs.
	dict *ScoreDict

	buckets map[uint64][]memoEntry
	n       int
	scratch []types.Value
}

// lookupOrCompute returns the preference's contribution for the tuple's
// key, computing and caching it on a miss. The boolean reports whether a
// contribution applies (condition held and the score was numeric).
func (m *scoreMemo) lookupOrCompute(tuple []types.Value, stats *Stats) (types.SC, bool) {
	key := m.scratch[:0]
	for _, c := range m.cols {
		key = append(key, tuple[c])
	}
	m.scratch = key
	debug.SameLen("memo key vs column set", len(key), len(m.cols))
	h := types.HashTuple(key)
	for _, e := range m.buckets[h] {
		if types.TupleEqual(e.key, key) {
			stats.CacheHits++
			return e.sc, e.has
		}
	}
	if m.dict != nil {
		if e, ok := m.dict.lookup(h, key); ok {
			stats.CacheHits++
			m.insert(h, e) // adopt locally: next probe skips the lock
			return e.sc, e.has
		}
	}
	stats.CacheMisses++
	var e memoEntry
	if m.cond.Truthy(tuple) {
		stats.ScoreEvals++
		if v := m.score.Eval(tuple); !v.IsNull() && v.IsNumeric() {
			e.sc = types.NewSC(pref.Clamp01(v.AsFloat()), m.conf)
			e.has = true
		}
	}
	e.key = append([]types.Value(nil), key...)
	m.insert(h, e)
	if m.dict != nil {
		m.dict.publish(h, e)
	}
	return e.sc, e.has
}

// combineBatch is the vectorized consultation of the memo: it folds the
// memoized ⟨S,C⟩ contribution into every selected row of b, writing the
// batch's private SC column in place. Per-row it is exactly
// lookupOrCompute + Combine, so hit/miss/eval accounting is per row.
func (m *scoreMemo) combineBatch(b *prel.Batch, agg pref.Aggregate, stats *Stats) {
	rows := b.Rows() // memo keys are tuples: columnar batches materialize here
	for _, j := range b.Sel {
		if sc, has := m.lookupOrCompute(rows[j], stats); has {
			b.SetSC(j, agg.Combine(b.SCAt(j), sc))
		}
	}
}

func (m *scoreMemo) insert(h uint64, e memoEntry) {
	if m.n >= scoreMemoLimit {
		return // degraded: existing entries keep serving hits
	}
	m.buckets[h] = append(m.buckets[h], e)
	m.n++
}

// ScoreDict is the level-2 cross-query score dictionary for one
// (preference, column-set). It is safe for concurrent use by any number
// of queries; entries are immutable once published.
type ScoreDict struct {
	mu      sync.RWMutex
	buckets map[uint64][]memoEntry
	n       int
}

// NewScoreDict returns an empty dictionary.
func NewScoreDict() *ScoreDict {
	return &ScoreDict{buckets: map[uint64][]memoEntry{}}
}

// Len returns the number of cached keys.
func (d *ScoreDict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

func (d *ScoreDict) lookup(h uint64, key []types.Value) (memoEntry, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, e := range d.buckets[h] {
		if types.TupleEqual(e.key, key) {
			return e, true
		}
	}
	return memoEntry{}, false
}

// publish inserts a computed entry unless the key is already present (two
// queries may race to compute the same key; both compute the same value,
// the first insert wins) or the dictionary is full.
func (d *ScoreDict) publish(h uint64, e memoEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n >= scoreDictLimit {
		return
	}
	for _, old := range d.buckets[h] {
		if types.TupleEqual(old.key, e.key) {
			return
		}
	}
	d.buckets[h] = append(d.buckets[h], e)
	d.n++
}

// newScoreMemo builds a level-1 memo for one prefer operator compiled
// against s, attaching the engine's level-2 dictionary when DictFor is set.
func (e *Executor) newScoreMemo(cond, score *expr.Compiled, p pref.Preference, s *schema.Schema) *scoreMemo {
	cols, names := scoreCacheKey(cond, score, s)
	m := &scoreMemo{
		cond:    cond,
		score:   score,
		conf:    p.Conf,
		cols:    cols,
		buckets: map[uint64][]memoEntry{},
		scratch: make([]types.Value, 0, len(cols)),
	}
	if e.DictFor != nil {
		m.dict = e.DictFor(p, names)
	}
	return m
}

// scoreCacheKey derives the canonical key projection for a compiled
// preference: the deduplicated union of the condition's and score's column
// ordinals, sorted by (column name, ordinal) so the key layout — and hence
// dictionary entries — is stable across schemas that arrange the same
// attributes differently.
func scoreCacheKey(cond, score *expr.Compiled, s *schema.Schema) ([]int, []string) {
	seen := map[int]bool{}
	var ords []int
	for _, set := range [][]int{cond.Columns(), score.Columns()} {
		for _, c := range set {
			if !seen[c] {
				seen[c] = true
				ords = append(ords, c)
			}
		}
	}
	names := make([]string, len(ords))
	for i, o := range ords {
		names[i] = s.Columns[o].Name
	}
	sort.Sort(&keyByName{ords: ords, names: names})
	return ords, names
}

type keyByName struct {
	ords  []int
	names []string
}

func (k *keyByName) Len() int { return len(k.ords) }
func (k *keyByName) Less(i, j int) bool {
	if k.names[i] != k.names[j] {
		return k.names[i] < k.names[j]
	}
	return k.ords[i] < k.ords[j]
}
func (k *keyByName) Swap(i, j int) {
	k.ords[i], k.ords[j] = k.ords[j], k.ords[i]
	k.names[i], k.names[j] = k.names[j], k.names[i]
}
