package prel

import (
	"container/heap"

	"prefdb/internal/types"
)

// TopK returns the k best rows under the same ordering as SortByScore /
// SortByConf (score or confidence descending, ⊥ last, deterministic
// tie-breaks), in ranked order. It runs in O(n log k) with a bounded heap
// instead of sorting the whole input, which matters for top-k filtering
// over large evaluated relations.
func TopK(rows []Row, k int, byConf bool) []Row {
	if k <= 0 {
		return nil
	}
	if k >= len(rows) {
		out := PRelation{Rows: append([]Row(nil), rows...)}
		if byConf {
			out.SortByConf()
		} else {
			out.SortByScore()
		}
		return out.Rows
	}
	h := &rowHeap{byConf: byConf, rows: make([]Row, 0, k+1)}
	for _, r := range rows {
		if h.Len() < k {
			heap.Push(h, r)
			continue
		}
		// Keep r only if it beats the current worst (the heap root).
		if rowBetter(r, h.rows[0], byConf) {
			h.rows[0] = r
			heap.Fix(h, 0)
		}
	}
	// Pop into descending rank order.
	out := make([]Row, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Row)
	}
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
