// Columnar scan path: segBatchSrc streams a columnar table's segment
// store (internal/colstore) plus the heap tail into the vectorized
// pipeline, consulting per-segment zone maps to skip whole segments
// against the pushed-down filter conjuncts before any kernel runs. A
// table is columnar once catalog.Table.ColStore has compacted it; scans
// of every other table read the heap. Results, order and Stats — modulo
// the diagnostic Batches / ColBatches / RowsMaterialized /
// SegmentsScanned / SegmentsSkipped counters — are identical on both.
//
// Each segment batch is one window of one segment carrying borrowed
// column vectors (prel.Batch.Cols) next to the segment's row views, so
// filter and score kernels run on dense typed vectors and tuples are
// touched only by operators that genuinely need rows (the
// late-materialization boundary; see Stats.RowsMaterialized).
package exec

import (
	"prefdb/internal/colstore"
	"prefdb/internal/prel"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// segBatchSrc streams a columnar segment store and then the heap tail
// (pages the compaction has not sealed) into a reused batch. Tuples alias
// the heap's pages, through the segments' row views for sealed pages and
// directly for the tail — immutable during execution — so the source
// copies nothing.
//
// Zone-map pruning: a segment whose zones prove the pushed-down conjuncts
// reject every live row is dropped unread. Its live rows are still
// credited to RowsScanned — the counter states which rows the scan
// accounted for, and the pruned rows were (provably) evaluated against the
// filter by metadata alone — so Stats stay byte-identical to the heap
// path; the benefit shows up in wall-clock time and the SegmentsSkipped
// diagnostic counter.
//
// Each columnar batch covers one window of one segment (windows never
// span segments, so every vector is a single borrowed slice); the heap
// tail then streams in row form through an ordinary heapBatchSrc.
type segBatchSrc struct {
	store *colstore.Store
	preds []colstore.Pred
	stats *Stats
	tick  pollTick
	size  int
	tail  heapBatchSrc // row-form source over the unsealed pages

	buf  *prel.Batch
	vecs []types.ColVec
	seg  int // current segment ordinal
	slot int // next slot within the current segment
	done bool
}

func newSegBatchSrc(store *colstore.Store, heap *storage.Heap, preds []colstore.Pred, stats *Stats, tick pollTick, size int) *segBatchSrc {
	return &segBatchSrc{store: store, preds: preds, stats: stats, tick: tick, size: size,
		tail: heapBatchSrc{heap: heap, stats: stats, tick: tick, size: size, page: store.SealedPages}}
}

func (s *segBatchSrc) nextBatch() (*prel.Batch, bool) {
	if s.done {
		return nil, false
	}
	if s.buf == nil {
		s.buf = prel.NewBatch(s.size)
		s.tail.buf = s.buf
	}
	if b, ok := s.nextDirect(s.buf); ok {
		return b, true
	}
	return s.tail.nextBatch()
}

// nextDirect emits the next columnar segment window, or reports false
// once the segments are exhausted (the caller then drains the heap tail
// in row form). RowsScanned counts the window's live rows, so totals
// match the heap path.
func (s *segBatchSrc) nextDirect(b *prel.Batch) (*prel.Batch, bool) {
	for s.seg < len(s.store.Segments) {
		seg := s.store.Segments[s.seg]
		if s.slot == 0 {
			// Segment entry: elide empty segments silently (the heap path
			// skips dead pages the same way) and prune on zone maps.
			if seg.Live == 0 {
				s.seg++
				continue
			}
			if len(s.preds) > 0 && seg.Skip(s.preds) {
				s.stats.SegmentsSkipped++
				s.stats.RowsScanned += seg.Live
				s.seg++
				continue
			}
			s.stats.SegmentsScanned++
		}
		lo := s.slot
		hi := min(lo+s.size, seg.Rows)
		s.slot = hi
		if s.slot >= seg.Rows {
			s.seg++
			s.slot = 0
		}
		if cap(s.vecs) < len(seg.Cols) {
			s.vecs = make([]types.ColVec, len(seg.Cols))
		}
		vecs := s.vecs[:len(seg.Cols)]
		// Reset first: it runs (and clears) the prefdbdebug borrowed-vector
		// check against the previous window before ColVecs legitimately
		// rewrites the shared vecs for this one.
		b.Reset()
		seg.ColVecs(lo, hi, vecs)
		b.SetColumnar(vecs, seg.Views(lo, hi))
		for i := lo; i < hi; i++ {
			if !seg.Dead(i) {
				b.Sel = append(b.Sel, int32(i-lo))
			}
		}
		if b.Live() == 0 {
			continue
		}
		b.Check()
		s.stats.RowsScanned += b.Live()
		s.stats.ColBatches++
		if s.tick.stopN(b.Live()) {
			s.done = true
		}
		return b, true
	}
	return nil, false
}
