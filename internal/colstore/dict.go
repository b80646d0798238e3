// Shared string dictionaries: a TableDict interns every string a table's
// columnar builds encounter, so segments built at different times — the
// first compaction and every rebuild after DML — assign the same code to
// the same string. Cross-segment (and cross-store) code
// comparisons are then valid by construction: two codes drawn from the
// same TableDict column are equal iff their strings are.
//
// Each segment snapshots the dictionary slice after encoding. The backing
// array is append-only between reallocations, so an older segment's
// shorter snapshot stays a valid prefix of a newer one; the string filter
// kernels' accept-bit cache, keyed on snapshot identity, carries over
// from segment to segment whenever no new string appeared in between, and
// is recomputed against the dictionary otherwise — never a wrong answer.
package colstore

import "sync"

// TableDict interns strings per column ordinal for one table's columnar
// builds. Safe for concurrent use, although the catalog runs one table's
// builds one at a time under its colMu.
type TableDict struct {
	mu   sync.Mutex
	cols map[int]*colDict
}

type colDict struct {
	codes map[string]int32
	strs  []string
}

// NewTableDict returns an empty shared dictionary.
func NewTableDict() *TableDict {
	return &TableDict{cols: map[int]*colDict{}}
}

// intern returns the stable code for s in column ord, assigning the next
// code on first sight. Builders keep a segment-local front cache, so the
// lock is taken once per distinct string per segment, not per row.
func (d *TableDict) intern(ord int, s string) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	cd := d.cols[ord]
	if cd == nil {
		cd = &colDict{codes: map[string]int32{}}
		d.cols[ord] = cd
	}
	code, ok := cd.codes[s]
	if !ok {
		code = int32(len(cd.strs))
		cd.strs = append(cd.strs, s)
		cd.codes[s] = code
	}
	return code
}

// snapshot returns the dictionary slice covering every code assigned so
// far for column ord (capacity-clamped, so later appends cannot leak into
// the published segment).
func (d *TableDict) snapshot(ord int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	cd := d.cols[ord]
	if cd == nil {
		return nil
	}
	return cd.strs[:len(cd.strs):len(cd.strs)]
}
