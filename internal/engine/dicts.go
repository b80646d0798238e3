package engine

import (
	"strings"
	"sync"

	"prefdb/internal/exec"
	"prefdb/internal/pref"
)

// dictCache holds the engine's level-2 preference score dictionaries for
// prepared statements: one exec.ScoreDict per (preference, column-set),
// shared by every run of every prepared query that evaluates the same
// preference over the same key attributes.
//
// Invalidation protocol: each entry snapshots the catalog version counter
// of every table the preference targets at creation time. DictFor compares
// the snapshot against the live counters on every call — any DML on a
// referenced table (insert, delete, update) bumps its counter, so the next
// lookup discards the stale dictionary and starts a fresh one. Dropping
// the whole dictionary (rather than patching entries) is correct because
// score entries are keyed by attribute values, and DML can retire or
// introduce arbitrary values.
type dictCache struct {
	mu      sync.Mutex
	entries map[string]*dictEntry
}

type dictEntry struct {
	dict *exec.ScoreDict
	// versions maps each target table name to the catalog version the
	// dictionary was built against.
	versions map[string]uint64
}

func newDictCache() *dictCache {
	return &dictCache{entries: map[string]*dictEntry{}}
}

// dictFor returns the current dictionary for a preference and its
// canonical key columns, creating or replacing it as needed. It returns
// nil (no cross-query caching; the per-query memo still works) when any
// target table cannot be resolved. Safe for concurrent use: concurrent
// runs of one prepared statement all receive the same dictionary.
func (db *DB) dictFor(p pref.Preference, cols []string) *exec.ScoreDict {
	versions := make(map[string]uint64, len(p.On))
	for _, rel := range p.On {
		t, err := db.cat.Table(rel)
		if err != nil {
			return nil
		}
		versions[t.Name] = t.Version()
	}
	key := p.String() + "\x00" + strings.Join(cols, ",")

	dc := db.dicts
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if e, ok := dc.entries[key]; ok && sameVersions(e.versions, versions) {
		return e.dict
	}
	e := &dictEntry{dict: exec.NewScoreDict(), versions: versions}
	dc.entries[key] = e
	return e.dict
}

func sameVersions(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
