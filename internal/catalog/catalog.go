// Package catalog manages prefdb's database catalog: named tables over heap
// storage, their secondary indexes, and per-column statistics used for
// selectivity estimation during query optimization.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"prefdb/internal/colstore"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// Table is a named base relation: heap storage plus secondary indexes.
type Table struct {
	Name string
	Heap *storage.Heap

	hashIdx  map[string]*storage.HashIndex
	btreeIdx map[string]*storage.BTreeIndex

	statsMu sync.Mutex
	stats   *TableStats // prefdb:guarded-by statsMu

	colMu sync.Mutex
	col   *colstore.Store // prefdb:guarded-by colMu

	// colDict is the table-level shared string dictionary every columnar
	// build interns through, so dictionary codes stay comparable across
	// segments and across rebuilds.
	colDict *colstore.TableDict

	// version counts DML batches applied to the table; the columnar image
	// records the version it was built at and is rebuilt when it moves.
	version atomic.Uint64 // prefdb:atomic
}

// Version returns the table's DML version counter. It is bumped by every
// Insert, and by InsertAll/DeleteWhere/UpdateWhere when they touch at
// least one row.
func (t *Table) Version() uint64 { return t.version.Load() }

// Schema returns the table schema.
func (t *Table) Schema() *schema.Schema { return t.Heap.Schema() }

// Len returns the live row count.
func (t *Table) Len() int { return t.Heap.Len() }

// Insert appends a tuple, maintaining all indexes.
func (t *Table) Insert(tuple []types.Value) error {
	if err := t.store(tuple); err != nil {
		return err
	}
	t.changed()
	return nil
}

// InsertAll appends tuples as one DML batch: the statistics are cleared
// and the version moves once, however many rows it stores. A failing
// tuple stops the batch; the rows stored before it stay, and count.
func (t *Table) InsertAll(tuples [][]types.Value) error {
	stored := 0
	defer func() {
		if stored > 0 {
			t.changed()
		}
	}()
	for _, tuple := range tuples {
		if err := t.store(tuple); err != nil {
			return err
		}
		stored++
	}
	return nil
}

// store appends a tuple to the heap and every index.
func (t *Table) store(tuple []types.Value) error {
	id, err := t.Heap.Insert(tuple)
	if err != nil {
		return err
	}
	for _, ix := range t.hashIdx {
		ix.Add(id, tuple)
	}
	for _, ix := range t.btreeIdx {
		ix.Add(id, tuple)
	}
	return nil
}

// changed records one DML batch: the statistics are invalidated and the
// version moves.
func (t *Table) changed() {
	t.statsMu.Lock()
	t.stats = nil
	t.statsMu.Unlock()
	t.version.Add(1)
}

// DeleteWhere tombstones every live tuple matched by pred and returns the
// number removed. Indexes skip deleted rows automatically; statistics are
// invalidated.
func (t *Table) DeleteWhere(pred func(tuple []types.Value) bool) int {
	var ids []storage.RowID
	t.Heap.Scan(func(id storage.RowID, tuple []types.Value) bool {
		if pred(tuple) {
			ids = append(ids, id)
		}
		return true
	})
	for _, id := range ids {
		t.Heap.Delete(id)
	}
	if len(ids) > 0 {
		t.changed()
	}
	return len(ids)
}

// UpdateWhere replaces every live tuple matched by pred with apply(tuple)
// (delete + re-insert, so all indexes stay correct) and returns the number
// updated. All replacement tuples are computed and checked against the
// schema (arity and kinds, schema.CheckTuple) before any mutation, so an
// apply error or a wrong-kind replacement leaves the table unchanged.
func (t *Table) UpdateWhere(pred func(tuple []types.Value) bool, apply func(tuple []types.Value) ([]types.Value, error)) (int, error) {
	type change struct {
		id  storage.RowID
		new []types.Value
	}
	var changes []change
	var applyErr error
	t.Heap.Scan(func(id storage.RowID, tuple []types.Value) bool {
		if !pred(tuple) {
			return true
		}
		newTuple, err := apply(tuple)
		if err != nil {
			applyErr = err
			return false
		}
		if err := t.Schema().CheckTuple(newTuple); err != nil {
			applyErr = fmt.Errorf("catalog: update: %w", err)
			return false
		}
		changes = append(changes, change{id: id, new: newTuple})
		return true
	})
	if applyErr != nil {
		return 0, applyErr
	}
	for _, c := range changes {
		t.Heap.Delete(c.id)
		if err := t.store(c.new); err != nil {
			return 0, err
		}
	}
	if len(changes) > 0 {
		t.changed()
	}
	return len(changes), nil
}

// HashIndexOn returns an equality index on the named column, if one exists.
func (t *Table) HashIndexOn(col string) (*storage.HashIndex, bool) {
	ix, ok := t.hashIdx[strings.ToLower(col)]
	return ix, ok
}

// BTreeIndexOn returns an ordered index on the named column, if one exists.
func (t *Table) BTreeIndexOn(col string) (*storage.BTreeIndex, bool) {
	ix, ok := t.btreeIdx[strings.ToLower(col)]
	return ix, ok
}

// HashIndexColumns lists the hash-indexed columns, sorted.
func (t *Table) HashIndexColumns() []string {
	out := make([]string, 0, len(t.hashIdx))
	for c := range t.hashIdx {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// BTreeIndexColumns lists the btree-indexed columns, sorted.
func (t *Table) BTreeIndexColumns() []string {
	out := make([]string, 0, len(t.btreeIdx))
	for c := range t.btreeIdx {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// IndexedColumns lists the columns covered by any index (sorted), used by
// the optimizer's heuristic 4 rationale ("a relation is likely to provide
// index-based access for prefer attributes").
func (t *Table) IndexedColumns() []string {
	set := map[string]bool{}
	for c := range t.hashIdx {
		set[c] = true
	}
	for c := range t.btreeIdx {
		set[c] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Catalog is the set of tables in a database.
type Catalog struct {
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// CreateTable registers a new empty table. Column qualifiers in the schema
// are forced to the table name so unqualified references resolve. Every
// column must be declared INT, FLOAT, TEXT or BOOL (schema.StoredKind).
func (c *Catalog) CreateTable(name string, s *schema.Schema) (*Table, error) {
	key := strings.ToLower(name)
	if _, dup := c.tables[key]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	for _, col := range s.Columns {
		if !schema.StoredKind(col.Kind) {
			return nil, fmt.Errorf("catalog: column %s.%s: kind %s is not INT, FLOAT, TEXT or BOOL", key, col.Name, col.Kind)
		}
	}
	t := &Table{
		Name:     key,
		Heap:     storage.NewHeap(s.Rename(key)),
		hashIdx:  map[string]*storage.HashIndex{},
		btreeIdx: map[string]*storage.BTreeIndex{},
		colDict:  colstore.NewTableDict(),
	}
	c.tables[key] = t
	return t, nil
}

// Table resolves a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateHashIndex builds an equality index on one column of a table.
func (c *Catalog) CreateHashIndex(table, col string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	idx, err := t.Schema().IndexOf("", col)
	if err != nil {
		return err
	}
	key := strings.ToLower(col)
	if _, dup := t.hashIdx[key]; dup {
		return fmt.Errorf("catalog: hash index on %s.%s already exists", table, col)
	}
	t.hashIdx[key] = storage.NewHashIndex(t.Heap, []int{idx})
	return nil
}

// CreateBTreeIndex builds an ordered index on one column of a table.
func (c *Catalog) CreateBTreeIndex(table, col string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	idx, err := t.Schema().IndexOf("", col)
	if err != nil {
		return err
	}
	key := strings.ToLower(col)
	if _, dup := t.btreeIdx[key]; dup {
		return fmt.Errorf("catalog: btree index on %s.%s already exists", table, col)
	}
	t.btreeIdx[key] = storage.NewBTreeIndex(t.Heap, idx)
	return nil
}

// Stats returns (computing lazily) the statistics for a table. It is safe
// to call from concurrent read-only queries; writes (Insert, DeleteWhere)
// must not run concurrently with queries.
func (t *Table) Stats() *TableStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats == nil {
		t.stats = analyze(t)
	}
	return t.stats
}

// ColStore makes the table columnar and returns its current segment
// store: the first call compacts the sealed heap pages, and any call after
// DML has moved the version counter rebuilds the image. Once a table is
// columnar (see Columnar) every batch scan of it goes through here, so the
// image a scan reads is never stale. Like Stats it is safe under
// concurrent read-only queries; writes are serialized by the engine and
// invalidate by bumping the version.
func (t *Table) ColStore() *colstore.Store {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if v := t.Version(); t.col == nil || t.col.Version != v {
		t.col = colstore.Build(t.Heap, v, t.colDict)
	}
	return t.col
}

// Columnar reports whether ColStore has ever been called on the table.
// Batch scans of a columnar table read its segment store; every other
// table's scans read the heap. It is the one answer the executor's scan
// builder and the optimizer's columnar rewrites share.
func (t *Table) Columnar() bool {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	return t.col != nil
}

// ColStoreIfBuilt returns the columnar store only when a fresh one is
// already built, never triggering compaction — for plan annotations that
// read segment metadata and must not pay for a build.
func (t *Table) ColStoreIfBuilt() *colstore.Store {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.col != nil && t.col.Version == t.Version() {
		return t.col
	}
	return nil
}

// WaitCompaction is kept so existing callers compile.
//
// Deprecated: has no effect; ColStore builds synchronously.
func (t *Table) WaitCompaction() {}
