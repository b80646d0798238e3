package prel

import (
	"container/heap"

	"prefdb/internal/types"
)

// TopK returns the k best rows under the same ordering as SortByScore /
// SortByConf (score or confidence descending, ⊥ last, deterministic
// tie-breaks), in ranked order: the rows pushed through one TopKHeap.
func TopK(rows []Row, k int, byConf bool) []Row {
	t := NewTopKHeap(k, byConf)
	for _, r := range rows {
		t.Push(r)
	}
	return t.Rows()
}

// TopKHeap selects the k best rows of a stream while holding at most k of
// them, so top-k filtering never materializes its input. Until a (k+1)-th
// row arrives the kept rows stay in arrival order, and Rows ranks them with
// the stable sort of SortByScore / SortByConf. From then on they form a
// bounded min-heap whose root is the worst kept row: O(n log k) instead of
// a full sort.
type TopKHeap struct {
	h      rowHeap
	k      int
	heaped bool
}

// NewTopKHeap returns an empty selector of the k best rows by score (or by
// confidence when byConf).
func NewTopKHeap(k int, byConf bool) *TopKHeap {
	return &TopKHeap{h: rowHeap{byConf: byConf}, k: k}
}

// Rejects reports whether a row with pair sc cannot be kept whatever its
// tuple: the selector is full and sc ranks strictly below the worst kept
// row. A tie on ⟨S,C⟩ is decided by the tuples, so it is not rejected and
// must reach Push. Callers use it to skip building a row the selector
// would drop. Once the selector is full it arranges the kept rows into the
// heap, as the next Push would.
func (t *TopKHeap) Rejects(sc types.SC) bool {
	if t.k <= 0 {
		return true
	}
	if len(t.h.rows) < t.k {
		return false
	}
	t.heapify()
	return compareSC(sc, t.h.rows[0].SC, t.h.byConf) < 0
}

// Push offers one row and returns the row it lets go: r itself when r
// does not make the cut, the evicted worst row when r displaces it, and
// the zero Row while the selector is still filling. A caller that builds
// its own tuples may reuse the returned tuple for the next row.
func (t *TopKHeap) Push(r Row) Row {
	if len(t.h.rows) < t.k {
		t.h.rows = append(t.h.rows, r)
		return Row{}
	}
	if t.k <= 0 {
		return r
	}
	t.heapify()
	// Keep r only if it beats the current worst (the heap root).
	if !rowBetter(r, t.h.rows[0], t.h.byConf) {
		return r
	}
	worst := t.h.rows[0]
	t.h.rows[0] = r
	heap.Fix(&t.h, 0)
	return worst
}

// heapify turns the kept rows into the bounded heap once the selector is
// full. Pushing them in arrival order lays out the heap exactly as pushing
// each on arrival would have: Push only sifts within the prefix it has
// filled.
func (t *TopKHeap) heapify() {
	if t.heaped {
		return
	}
	kept := t.h.rows
	t.h.rows = kept[:0]
	for _, kr := range kept {
		heap.Push(&t.h, kr)
	}
	t.heaped = true
}

// Rows returns the kept rows in ranked order, emptying the selector.
func (t *TopKHeap) Rows() []Row {
	if !t.heaped {
		out := PRelation{Rows: t.h.rows}
		t.h.rows = nil
		out.sortBy(!t.h.byConf)
		return out.Rows
	}
	// Pop into descending rank order.
	out := make([]Row, t.h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&t.h).(Row)
	}
	t.heaped = false
	return out
}

// rowBetter reports whether a ranks strictly before b under the score (or
// confidence) ordering used by SortByScore/SortByConf.
func rowBetter(a, b Row, byConf bool) bool {
	if c := compareSC(a.SC, b.SC, byConf); c != 0 {
		return c > 0
	}
	return compareTuplesLess(a, b)
}

// compareSC orders two pairs by the ranking alone: +1 when a ranks before
// b, -1 when after, 0 when the tuples must decide (equal pairs, or both ⊥).
// A scored pair ranks before ⊥; two scored pairs compare by score, then
// confidence (the other way round when byConf).
func compareSC(a, b types.SC, byConf bool) int {
	if a.Known != b.Known {
		return sign(a.Known)
	}
	if !a.Known {
		return 0
	}
	p1, s1, p2, s2 := a.Score, a.Conf, b.Score, b.Conf
	if byConf {
		p1, s1, p2, s2 = a.Conf, a.Score, b.Conf, b.Score
	}
	switch {
	case p1 != p2:
		return sign(p1 > p2)
	case s1 != s2:
		return sign(s1 > s2)
	}
	return 0
}

func sign(better bool) int {
	if better {
		return 1
	}
	return -1
}

func compareTuplesLess(a, b Row) bool {
	return types.CompareTuples(a.Tuple, b.Tuple) < 0
}

// rowHeap is a min-heap on the ranking order: the root is the worst of the
// kept rows.
type rowHeap struct {
	rows   []Row
	byConf bool
}

func (h *rowHeap) Len() int           { return len(h.rows) }
func (h *rowHeap) Less(i, j int) bool { return rowBetter(h.rows[j], h.rows[i], h.byConf) }
func (h *rowHeap) Swap(i, j int)      { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }
func (h *rowHeap) Push(x any)         { h.rows = append(h.rows, x.(Row)) }
func (h *rowHeap) Pop() any {
	n := len(h.rows)
	r := h.rows[n-1]
	h.rows = h.rows[:n-1]
	return r
}
