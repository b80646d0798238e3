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

// Push offers one row.
func (t *TopKHeap) Push(r Row) {
	if len(t.h.rows) < t.k {
		t.h.rows = append(t.h.rows, r)
		return
	}
	if t.k <= 0 {
		return
	}
	if !t.heaped {
		// Heap the kept rows by pushing them in arrival order, which
		// lays out the heap exactly as pushing each on arrival would
		// have: Push only sifts within the prefix it has filled.
		kept := t.h.rows
		t.h.rows = kept[:0]
		for _, kr := range kept {
			heap.Push(&t.h, kr)
		}
		t.heaped = true
	}
	// Keep r only if it beats the current worst (the heap root).
	if rowBetter(r, t.h.rows[0], t.h.byConf) {
		t.h.rows[0] = r
		heap.Fix(&t.h, 0)
	}
}

// PushBatch offers the selected rows of b in order.
func (t *TopKHeap) PushBatch(b *Batch) {
	for i := range b.Live() {
		t.Push(b.Row(i))
	}
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
	if a.SC.Known != b.SC.Known {
		return a.SC.Known
	}
	if !a.SC.Known {
		return compareTuplesLess(a, b)
	}
	p1, s1 := a.SC.Score, a.SC.Conf
	p2, s2 := b.SC.Score, b.SC.Conf
	if byConf {
		p1, s1 = a.SC.Conf, a.SC.Score
		p2, s2 = b.SC.Conf, b.SC.Score
	}
	if p1 != p2 {
		return p1 > p2
	}
	if s1 != s2 {
		return s1 > s2
	}
	return compareTuplesLess(a, b)
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
