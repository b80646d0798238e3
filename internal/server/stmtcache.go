// Cross-session prepared-statement cache: one compiled plan per SQL text,
// shared by every session, LRU-bounded. The expensive artifact (parse +
// plan + optimize) is keyed by the query text and reused across
// connections. Plans reference tables by name, so DML never
// invalidates an entry; DDL flushes the whole cache (schema changes can
// re-resolve columns), mirroring the engine's re-prepare rule.
package server

import (
	"container/list"
	"sync"

	"prefdb/internal/engine"
)

type stmtCache struct {
	max int

	mu      sync.Mutex
	entries map[string]*list.Element // prefdb:guarded-by mu
	lru     *list.List               // prefdb:guarded-by mu
	hits    int                      // prefdb:guarded-by mu
	misses  int                      // prefdb:guarded-by mu
}

type cacheEntry struct {
	sql string
	p   *engine.Prepared
}

func newStmtCache(max int) *stmtCache {
	return &stmtCache{max: max, entries: map[string]*list.Element{}, lru: list.New()}
}

// get returns the cached plan for sql, compiling and inserting on miss.
// Session defaults deliberately do not key the cache: a Prepared compiled
// without defaults is configured per run, so sessions with different
// defaults share one plan.
func (c *stmtCache) get(db *engine.DB, sql string) (*engine.Prepared, error) {
	c.mu.Lock()
	if el, ok := c.entries[sql]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		p := el.Value.(*cacheEntry).p
		c.mu.Unlock()
		return p, nil
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the lock: planning can be slow and concurrent misses
	// for the same text are rare (the loser's duplicate is dropped).
	p, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[sql]; ok {
		return el.Value.(*cacheEntry).p, nil
	}
	el := c.lru.PushFront(&cacheEntry{sql: sql, p: p})
	c.entries[sql] = el
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).sql)
	}
	return p, nil
}

// flush drops every entry (DDL executed).
func (c *stmtCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru.Init()
}

// stats reports entry count and hit/miss counters.
func (c *stmtCache) stats() (entries, hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.hits, c.misses
}
