// Vectorized pipeline: the executor's one physical execution path.
//
// Every plan compiles through buildBatch into a pull pipeline over
// morsel-sized row batches (prel.Batch): an operator processes a whole
// block per nextBatch call, compacting a selection vector instead of
// copying rows, so interface dispatch, guard polling and stats accounting
// amortize over the batch. σ/λ chains fuse into a single kernel
// (applySegOps) that filters via the conjunct-wise expr.TruthyBatch and
// scores only surviving rows: on columnar batches through the typed-float
// kernel (expr.EvalFloats), on row batches through expr.EvalBatch.
//
// Rules:
//
//   - buildBatch is the only node dispatcher; no operator has a
//     row-at-a-time mirror.
//   - Rows are copied only where they are kept. Top-k streams its input
//     through a bounded heap (prel.TopKHeap) that keeps k rows, building a
//     projected tuple only for a row the heap cannot reject on ⟨S,C⟩; a
//     threshold filters before the projection over it. The other blocking
//     operators (skyline, rank, order-by) drain their input once into an
//     exactly sized slice (drain's rowSpool); set operations drain both
//     children the same way. Each serves its result as a sliceBatchSrc. A
//     prefer over a strategy's own intermediate relation scores it in
//     place (Executor.temp).
//   - Every plan is run by one pipeline root (pipeline, executor.go) that
//     charges each batch it pulls; drain, top-k and RowStream share it.
//   - Results, row order and the non-diagnostic Stats do not depend on the
//     batch size or on whether a table is columnar (see Executor). The suites
//     in batch_test.go enforce this and check every result against the
//     tuple-at-a-time oracle in oracle_test.go.
package exec

import (
	"fmt"
	"math/bits"

	"prefdb/internal/algebra"
	"prefdb/internal/colstore"
	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// defaultBatchSize is the rows-per-batch block size when BatchSize is 0:
// large enough to amortize per-batch overhead, small enough that a batch's
// tuple pointers and ⟨S,C⟩ column stay cache-resident.
const defaultBatchSize = 1024

// batchSize resolves the configured rows-per-batch block size.
func (e *Executor) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return defaultBatchSize
}

// batchIter is the pull-based batch stream: nextBatch returns a non-empty
// batch (Live() > 0) or reports exhaustion. The returned batch is valid
// only until the next call — consumers that buffer rows must copy them out
// (Batch.AppendRows).
type batchIter interface {
	nextBatch() (*prel.Batch, bool)
}

// --- sources and adapters ---

// sliceBatchSrc serves a materialized row slice in batch-sized blocks,
// reusing one batch buffer across calls.
type sliceBatchSrc struct {
	rows []prel.Row
	pos  int
	size int
	buf  *prel.Batch
}

func newSliceBatchSrc(rows []prel.Row, size int) *sliceBatchSrc {
	return &sliceBatchSrc{rows: rows, size: size}
}

func (s *sliceBatchSrc) nextBatch() (*prel.Batch, bool) {
	if s.pos >= len(s.rows) {
		return nil, false
	}
	hi := min(s.pos+s.size, len(s.rows))
	if s.buf == nil {
		s.buf = prel.NewBatch(s.size)
	}
	s.buf.FillRows(s.rows[s.pos:hi])
	s.pos = hi
	return s.buf, true
}

// heapBatchSrc streams a heap page-by-page into a reused batch, never
// materializing the table's row slice. Tuples alias heap pages, which are
// append-only during execution. RowsScanned grows by each batch as it is
// produced, so a consumer that stops early (a Limit) leaves the rest of
// the heap unread and uncounted.
type heapBatchSrc struct {
	heap  *storage.Heap
	stats *Stats
	tick  pollTick
	size  int

	buf  *prel.Batch
	page int
	slot int
	done bool
}

func (h *heapBatchSrc) nextBatch() (*prel.Batch, bool) {
	if h.done {
		return nil, false
	}
	if h.buf == nil {
		h.buf = prel.NewBatch(h.size)
	}
	b := h.buf
	b.Reset()
	for b.Cap() < h.size && h.page < h.heap.Blocks() {
		rows, dead, live := h.heap.Block(h.page)
		if live == 0 {
			h.page++
			h.slot = 0
			continue
		}
		for ; h.slot < len(rows) && b.Cap() < h.size; h.slot++ {
			if dead[h.slot] {
				continue
			}
			b.PushTuple(rows[h.slot])
		}
		if h.slot >= len(rows) {
			h.page++
			h.slot = 0
		}
	}
	if b.Cap() == 0 {
		h.done = true
		return nil, false
	}
	h.stats.RowsScanned += b.Cap()
	if h.tick.stopN(b.Cap()) {
		h.done = true // guard tripped: stop producing, like materialize
	}
	return b, true
}

// idBatchSrc is the index access path: it fetches the heap tuples of an
// index lookup's row ids, in id-list order, into a reused batch. Like
// heapBatchSrc it counts RowsScanned per batch and polls the guard.
type idBatchSrc struct {
	heap  *storage.Heap
	ids   []storage.RowID
	stats *Stats
	tick  pollTick
	size  int
	buf   *prel.Batch
}

func (s *idBatchSrc) nextBatch() (*prel.Batch, bool) {
	if s.buf == nil {
		s.buf = prel.NewBatch(s.size)
	}
	b := s.buf
	b.Reset()
	for len(s.ids) > 0 && b.Cap() < s.size {
		if tuple, ok := s.heap.Get(s.ids[0]); ok {
			b.PushTuple(tuple)
		}
		s.ids = s.ids[1:]
	}
	if b.Cap() == 0 {
		return nil, false
	}
	s.stats.RowsScanned += b.Cap()
	if s.tick.stopN(b.Cap()) {
		s.ids = nil // guard tripped: stop producing, like heapBatchSrc
	}
	return b, true
}

// drainBatches exhausts a batch pipeline into an exactly sized row slice
// (rowSpool), counting columnar rows as they cross the
// late-materialization boundary.
func (e *Executor) drainBatches(bi batchIter) []prel.Row {
	var sp rowSpool
	for {
		b, ok := bi.nextBatch()
		if !ok {
			return sp.rows()
		}
		if b.Columnar() {
			e.stats.RowsMaterialized += b.Live()
		}
		sp.add(b)
	}
}

// --- vectorized operators ---

// filterBatch applies a compiled condition by compacting the selection
// vector (expr.TruthyBatch); empty batches are skipped, with an amortized
// guard tick covering the spin over fully rejected blocks. Columnar
// batches filter through the direct-column kernels first
// (expr.TruthyBatchCols), touching the row views only for conjuncts
// without a kernel — those crossings count as materialized rows.
type filterBatch struct {
	in    batchIter
	cond  *expr.Compiled
	stats *Stats
	tick  pollTick
	scr   expr.ColScratch
}

func (f *filterBatch) nextBatch() (*prel.Batch, bool) {
	for {
		b, ok := f.in.nextBatch()
		if !ok {
			return nil, false
		}
		if f.tick.stopN(b.Live()) {
			return nil, false
		}
		if b.Columnar() {
			var mat int
			b.Sel, mat = f.cond.TruthyBatchCols(b.Cols, b.View, b.Sel, &f.scr)
			f.stats.RowsMaterialized += mat
		} else {
			b.Sel = f.cond.TruthyBatch(b.Tuples, b.Sel)
		}
		b.Check()
		if b.Live() > 0 {
			return b, true
		}
	}
}

// segScratch is the per-caller scratch of the vectorized prefer kernel: a
// private selection vector for each preference's conditional part and a
// score column for its batch-evaluated scoring part. Each segBatchIter
// owns one, so the compiled segOps stay read-only.
type segScratch struct {
	sel    []int32
	scores []types.Value
	// Direct-column score path scratch: the float score vector and its
	// NULL flags, plus one expr.ColScratch per chain op (dictionary
	// accept-bit caches for string conjuncts).
	f      []float64
	null   []bool
	colScr []expr.ColScratch
}

// applySegOps runs a compiled σ/λ chain over one batch in place: filters
// compact the selection vector conjunct-wise, prefers fold ⟨S,C⟩
// contributions into the batch's private SC column for the surviving rows
// only. A preference's conditional part vectorizes like a filter — but
// into the scratch selection vector, since a preference scores matching
// rows rather than dropping the rest — and its scoring part evaluates
// batch-wise (expr.EvalBatch), hoisting per-row scratch out of the row
// loop. Per row this is σ and λ_{p,F} of §IV: a NULL or non-numeric score
// leaves the pair unchanged and scores clamp to [0,1].
func applySegOps(b *prel.Batch, ops []segOp, agg pref.Aggregate, stats *Stats, scr *segScratch) {
	columnar := b.Columnar()
	if columnar && scr.colScr == nil {
		scr.colScr = make([]expr.ColScratch, len(ops))
	}
	for i, op := range ops {
		if op.filter != nil {
			if columnar {
				var mat int
				b.Sel, mat = op.filter.TruthyBatchCols(b.Cols, b.View, b.Sel, &scr.colScr[i])
				stats.RowsMaterialized += mat
			} else {
				b.Sel = op.filter.TruthyBatch(b.Tuples, b.Sel)
			}
			if len(b.Sel) == 0 {
				return
			}
			continue
		}
		stats.PreferEvals += len(b.Sel)
		scr.sel = append(scr.sel[:0], b.Sel...)
		if columnar {
			var mat int
			scr.sel, mat = op.cond.TruthyBatchCols(b.Cols, b.View, scr.sel, &scr.colScr[i])
			stats.RowsMaterialized += mat
		} else {
			scr.sel = op.cond.TruthyBatch(b.Tuples, scr.sel)
		}
		if len(scr.sel) == 0 {
			continue
		}
		stats.ScoreEvals += len(scr.sel)
		if columnar && op.score.CanEvalCols() {
			// Float fast path: the score evaluates straight off the column
			// vectors into a float column, and the ⟨S,C⟩ vectors update in
			// place — no types.Value boxing anywhere in the loop.
			n := len(scr.sel)
			if cap(scr.f) < n || cap(scr.null) < n {
				scr.f = make([]float64, n)
				scr.null = make([]bool, n)
			}
			f, null := scr.f[:n], scr.null[:n]
			op.score.EvalFloats(b.Cols, scr.sel, f, null)
			for k, j := range scr.sel {
				if !null[k] {
					s := pref.Clamp01(f[k])
					sc := agg.Combine(b.SCAt(j), types.NewSC(s, op.conf))
					b.S[j], b.C[j], b.Known[j] = sc.Score, sc.Conf, sc.Known
				}
			}
			continue
		}
		if columnar {
			// A score with no direct-column kernel reads the row views.
			stats.RowsMaterialized += len(scr.sel)
		}
		if cap(scr.scores) < len(scr.sel) {
			scr.scores = make([]types.Value, len(scr.sel))
		}
		scores := scr.scores[:len(scr.sel)]
		op.score.EvalBatch(b.Rows(), scr.sel, scores)
		for k, j := range scr.sel {
			if v := scores[k]; !v.IsNull() && v.IsNumeric() {
				s := pref.Clamp01(v.AsFloat())
				b.SetSC(j, agg.Combine(b.SCAt(j), types.NewSC(s, op.conf)))
			}
		}
	}
}

// segOp is one per-row stage of a compiled σ/λ chain: either a filter (σ)
// or a prefer (λ) with its compiled conditional and scoring parts.
type segOp struct {
	filter *expr.Compiled // non-nil for σ

	cond  *expr.Compiled // prefer conditional part
	score *expr.Compiled // prefer scoring part
	conf  float64
}

// collectChain walks the maximal σ/λ chain rooted at n, returning the
// chain nodes (outermost first) and the leaf below them.
func collectChain(n algebra.Node) ([]algebra.Node, algebra.Node) {
	var chain []algebra.Node
	cur := n
	for {
		switch x := cur.(type) {
		case *algebra.Select:
			chain = append(chain, x)
			cur = x.Input
		case *algebra.Prefer:
			chain = append(chain, x)
			cur = x.Input
		default:
			return chain, cur
		}
	}
}

// compileSegOps compiles a collected σ/λ chain against s into per-row
// segment ops, innermost-first, so compile errors surface in plan order.
func (e *Executor) compileSegOps(chain []algebra.Node, s *schema.Schema) ([]segOp, error) {
	ops := make([]segOp, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		switch x := chain[i].(type) {
		case *algebra.Select:
			cond, cErr := expr.CompileCondition(x.Cond, s, e.Funcs)
			if cErr != nil {
				return nil, cErr
			}
			ops = append(ops, segOp{filter: cond})
		case *algebra.Prefer:
			if vErr := x.P.Validate(); vErr != nil {
				return nil, vErr
			}
			cond, cErr := expr.CompileCondition(x.P.Cond, s, e.Funcs)
			if cErr != nil {
				return nil, fmt.Errorf("prefer %s (conditional part): %w", x.P.Label(), cErr)
			}
			score, sErr := expr.Compile(x.P.Score, s, e.Funcs)
			if sErr != nil {
				return nil, fmt.Errorf("prefer %s (scoring part): %w", x.P.Label(), sErr)
			}
			ops = append(ops, segOp{cond: cond, score: score, conf: x.P.Conf})
		}
	}
	return ops, nil
}

// segBatchIter is the fused filter→prefer kernel: one virtual call per batch runs the whole compiled chain. It is the one σ/λ
// implementation over both batch sources (segBatchSrc windows over a
// columnar table, heapBatchSrc over any other).
type segBatchIter struct {
	in    batchIter
	ops   []segOp
	agg   pref.Aggregate
	stats *Stats
	tick  pollTick
	scr   segScratch
}

func (s *segBatchIter) nextBatch() (*prel.Batch, bool) {
	for {
		b, ok := s.in.nextBatch()
		if !ok {
			return nil, false
		}
		if s.tick.stopN(b.Live()) {
			return nil, false
		}
		applySegOps(b, s.ops, s.agg, s.stats, &s.scr)
		b.Check()
		if b.Live() > 0 {
			return b, true
		}
	}
}

// projectBatch narrows the selected rows of each batch into a private
// output batch, drawing output tuples from a chunked arena (one
// allocation per projectChunkRows rows; see projectArena for the aliasing
// contract). With nil ords the projection is the identity: row-form
// batches pass through untouched and columnar batches cross into row form
// with their row views as tuples, so no cell is copied.
type projectBatch struct {
	in    batchIter
	ords  []int // nil: identity
	stats *Stats
	out   *prel.Batch
	arena projectArena
}

// prefdb:nolifecycle projection drops no rows, so the loop iterates at most twice per call; the input pipeline ticks
func (p *projectBatch) nextBatch() (*prel.Batch, bool) {
	for {
		b, ok := p.in.nextBatch()
		if !ok {
			return nil, false
		}
		if p.ords == nil && !b.Columnar() {
			return b, true
		}
		if p.out == nil {
			p.out = prel.NewBatch(b.Live())
		}
		p.out.Reset()
		if b.Columnar() {
			// Projection needs row views: the surviving rows cross the
			// late-materialization boundary here.
			p.stats.RowsMaterialized += b.Live()
		}
		rows := b.Rows()
		for _, j := range b.Sel {
			src := rows[j]
			t := src
			if p.ords != nil {
				t = p.arena.tuple()
				for i, o := range p.ords {
					t[i] = src[o]
				}
			}
			p.out.Push(prel.Row{Tuple: t, SC: b.SCAt(j)})
		}
		p.out.Check()
		if p.out.Live() > 0 {
			return p.out, true
		}
	}
}

// thresholdBatch filters on the score or confidence dimension by
// compacting the selection vector: a ⊥ pair fails every score comparison;
// confidence is defined for every tuple (0 under ⊥).
type thresholdBatch struct {
	in    batchIter
	by    algebra.RankBy
	op    expr.Op
	value float64
	tick  pollTick
}

func (t *thresholdBatch) nextBatch() (*prel.Batch, bool) {
	for {
		b, ok := t.in.nextBatch()
		if !ok {
			return nil, false
		}
		if t.tick.stopN(b.Live()) {
			return nil, false
		}
		// Pure vector read: ⟨S,C⟩ lives in the batch's float columns, so
		// thresholds never touch tuples — columnar batches pass through
		// without materializing anything.
		out := b.Sel[:0]
		for _, j := range b.Sel {
			var v float64
			if t.by == algebra.ByConf {
				v = b.C[j]
			} else {
				if !b.Known[j] {
					continue
				}
				v = b.S[j]
			}
			if cmpFloat(v, t.op, t.value) {
				out = append(out, j)
			}
		}
		b.Sel = out
		b.Check()
		if b.Live() > 0 {
			return b, true
		}
	}
}

// limitBatch skips the first skip rows, then passes at most left more, by
// trimming the selection vector of the batches they fall in. It pulls no
// batch once both are used up, so the input stops on the batch boundary
// after the last row passed.
type limitBatch struct {
	in         batchIter
	skip, left int
	tick       pollTick
}

func (l *limitBatch) nextBatch() (*prel.Batch, bool) {
	for l.skip > 0 || l.left > 0 {
		b, ok := l.in.nextBatch()
		if !ok || l.tick.stopN(b.Live()) {
			return nil, false
		}
		n := copy(b.Sel, b.Sel[min(l.skip, len(b.Sel)):])
		l.skip -= len(b.Sel) - n
		b.Sel = b.Sel[:min(n, l.left)]
		l.left -= len(b.Sel)
		b.Check()
		if b.Live() > 0 {
			return b, true
		}
	}
	return nil, false
}

// nlJoinBatch is the nested-loop join ⋈_{true,F}; a non-equi condition
// runs as a filter above it. It buffers the right input (materialized
// state, metered against the guard), then pairs each selected row of each
// left batch with every buffered right row, in (left order, right order)
// sequence, writing each pair through its gather, size rows per output
// batch.
type nlJoinBatch struct {
	left, right batchIter
	agg         pref.Aggregate
	stats       *Stats
	meter       matTick // charges the buffered right rows
	tick        pollTick
	size        int

	built  bool
	rRows  []prel.Row
	lb     *prel.Batch // current left batch
	li, ri int         // next pair: selected left row li × buffered right row ri
	out    *prel.Batch
	gather joinGather
}

// buildRight buffers the right input; a columnar batch's rows cross into
// row views here.
func (n *nlJoinBatch) buildRight() {
	for {
		b, ok := n.right.nextBatch()
		if !ok {
			break
		}
		if b.Columnar() {
			n.stats.RowsMaterialized += b.Live()
		}
		n.rRows = b.AppendRows(n.rRows)
		if n.meter.rows(b.Live()) != nil {
			break // trip is recorded in the guard; the pipeline root surfaces it
		}
	}
	_ = n.meter.flush()
	n.built = true
}

func (n *nlJoinBatch) nextBatch() (*prel.Batch, bool) {
	if !n.built {
		n.buildRight()
		n.out = prel.NewBatch(n.size)
	}
	if len(n.rRows) == 0 {
		return nil, false // nothing can join: the left input is never read
	}
	n.out.Reset()
	for n.out.Cap() < n.size {
		if n.lb == nil || n.li >= n.lb.Live() {
			b, ok := n.left.nextBatch()
			if !ok || n.tick.stopN(b.Live()) {
				break
			}
			if b.Columnar() {
				n.stats.RowsMaterialized += b.Live()
			}
			n.lb, n.li, n.ri = b, 0, 0
			continue
		}
		j := n.lb.Sel[n.li]
		l, lsc := n.lb.Rows()[j], n.lb.SCAt(j)
		for ; n.ri < len(n.rRows) && n.out.Cap() < n.size; n.ri++ {
			r := n.rRows[n.ri]
			n.out.Push(prel.Row{Tuple: n.gather.tuple(l, r.Tuple), SC: n.agg.Combine(lsc, r.SC)})
		}
		if n.ri == len(n.rRows) {
			n.li, n.ri = n.li+1, 0
		}
	}
	if n.out.Cap() == 0 {
		return nil, false
	}
	return n.out, true
}

// hashJoinBatch is the extended hash join ⋈_{φ,F}: the build side is
// buffered into a flat join table (joinTable), the probe side streams
// batches, emitting joined rows into a private output batch in (probe
// order, build-insert order) sequence. The build side is the left input
// unless the optimizer marked the join BuildRight (the right input has the
// smaller estimate); either way every output tuple is laid out left ++
// right and its pair is F(left, right), so only the row order depends on
// the build side.
//
// The probe takes a whole batch through three phases: hash every selected
// row whose key has no NULL; collect the (probe slot, build row)
// candidates whose full hash matches (joinTable.candidates); confirm the
// candidates on their key values, then emit the confirmed ones. The loads
// of the bucket lookups, and then of the confirms, do not depend on one
// another across rows, so their cache misses overlap instead of stalling
// once per probe row.
//
// A join on one INT = INT key whose cells are known to hold their
// declared kind (intKeyJoin) takes the typed arm: each key hashes through
// intKeyHash, a bijection on 64-bit words, so a candidate's hash equal to
// the probe's is its key equal to the probe's and no candidate is
// confirmed. Every other key — FLOAT, TEXT, BOOL, INT against FLOAT,
// composite — hashes through hashCols and is confirmed through equalOn.
//
// The join's Cols, and a projection directly above it, are evaluated
// inside it (its gather): each match is written once, already narrowed,
// into an arena tuple — no concatenated intermediate tuple and no second
// copy.
//
// The join reads row views on both sides: a columnar batch's selected
// rows count once into Stats.RowsMaterialized when they enter the join,
// build side or probe side. The join table retains key hashes and row
// views, which alias stable, store-owned tuple storage; prefdbdebug builds
// re-hash every retained entry from its tuple after the build
// (debugCheckJoinTable).
type hashJoinBatch struct {
	build, probe         batchIter
	buildKeys, probeKeys []int
	// buildRight: the build side is the right input.
	buildRight bool
	// intKey: the typed arm (intKeyJoin), keyed by intKeyHash with no
	// confirm.
	intKey bool
	gather joinGather
	agg    pref.Aggregate
	stats  *Stats
	g      *guard
	tick   pollTick

	built bool
	table joinTable
	out   *prel.Batch
	// Scratch, reused across batches: the key hashes of the selected rows
	// that can join, those rows' slots, and the candidate pairs (index
	// into keySel, index into table.rows).
	hashes           []uint64
	keySel           []int32
	candSel, candRow []int32
}

// joinTable is the hash join's build side laid out flat: the retained
// build rows sit in rows, grouped by bucket and in insert order within a
// bucket, each with its full key hash beside it in hashes; bucket b holds
// rows[start[b]:start[b+1]]. The bucket count is a power of two no
// smaller than the row count, so a bucket holds at most one row on
// average, and the table costs the same few allocations whatever the
// number of distinct keys.
type joinTable struct {
	rows   []prel.Row
	hashes []uint64
	start  []int32
	shift  uint // bucket = (hash * fibMul) >> shift
	// The build appends to pending chunks in insert order; finish lays
	// the pairs out. Chunks, unlike one growing slice, are never copied.
	pending []joinChunk
	n       int // rows appended
}

// joinChunk is one pending block of (hash, row) pairs. Chunk capacities
// double from joinChunkMin rows up to joinChunkMax, so the pending
// storage exceeds the rows it holds by at most one chunk.
type joinChunk struct {
	hashes []uint64
	rows   []prel.Row
}

const (
	joinChunkMin = 64
	joinChunkMax = 4096
)

// fibMul is 2^64 / φ: Fibonacci hashing takes a bucket from the top bits
// of hash * fibMul, which every bit of the hash feeds.
const fibMul = 0x9E3779B97F4A7C15

func (t *joinTable) add(hash uint64, row prel.Row) {
	last := len(t.pending) - 1
	if last < 0 || len(t.pending[last].rows) == cap(t.pending[last].rows) {
		size := min(max(t.n, joinChunkMin), joinChunkMax)
		t.pending = append(t.pending, joinChunk{hashes: make([]uint64, 0, size), rows: make([]prel.Row, 0, size)})
		last++
	}
	c := &t.pending[last]
	c.hashes = append(c.hashes, hash)
	c.rows = append(c.rows, row)
	t.n++
}

func (t *joinTable) bucket(hash uint64) int { return int(hash * fibMul >> t.shift) }

// finish sorts the pending pairs into bucket order, stably, so rows of
// one key keep their insert order: a counting sort whose second pass runs
// backwards, taking each bucket's slots from its end.
func (t *joinTable) finish() {
	if t.n == 0 {
		return
	}
	b := bits.Len(uint(t.n - 1)) // 2^b >= n buckets
	t.shift = uint(64 - b)
	t.start = make([]int32, 1<<b+1)
	for _, c := range t.pending {
		for _, h := range c.hashes {
			t.start[t.bucket(h)]++
		}
	}
	sum := int32(0)
	for i, c := range t.start {
		sum += c
		t.start[i] = sum // end of bucket i
	}
	t.rows = make([]prel.Row, t.n)
	t.hashes = make([]uint64, t.n)
	for ci := len(t.pending) - 1; ci >= 0; ci-- {
		c := t.pending[ci]
		for i := len(c.hashes) - 1; i >= 0; i-- {
			k := t.bucket(c.hashes[i])
			t.start[k]--
			t.rows[t.start[k]], t.hashes[t.start[k]] = c.rows[i], c.hashes[i]
		}
	}
	t.pending = nil
}

// candidates appends to sel and rows the pair (k, i) for every probe hash
// hs[k] and every build row i of its bucket with the same full hash, in
// (probe order, build-insert order).
func (t *joinTable) candidates(hs []uint64, sel, rows []int32) ([]int32, []int32) {
	start, hashes := t.start, t.hashes
	for k, h := range hs {
		b := t.bucket(h)
		for i := start[b]; i < start[b+1]; i++ {
			if hashes[i] == h {
				sel = append(sel, int32(k))
				rows = append(rows, i)
			}
		}
	}
	return sel, rows
}

// keyHashes returns the key hashes of the selected rows of b that can
// join, and those rows' slots: a row with a NULL key column is left out,
// since NULL = x is never true (σ_φ(R×S) ≡ R ⋈_φ S, §IV-B). Leaving it
// out of the build keeps the generic arm's confirm, which uses
// Value.Equal (NULL = NULL), from matching it; leaving it out of the
// probe keeps the typed arm, which confirms nothing, from matching a
// NULL to whatever key shares its payload. A columnar batch's selected
// rows count into RowsMaterialized here: this is where they enter the
// join as row views.
func (h *hashJoinBatch) keyHashes(b *prel.Batch, keys []int) ([]uint64, []int32) {
	if cap(h.hashes) < len(b.Sel) {
		h.hashes, h.keySel = make([]uint64, len(b.Sel)), make([]int32, len(b.Sel))
	}
	hs, sel := h.hashes[:len(b.Sel)], h.keySel[:len(b.Sel)]
	if b.Columnar() {
		h.stats.RowsMaterialized += b.Live()
	}
	rows, n := b.Rows(), 0
	if h.intKey {
		c := keys[0]
		for _, j := range b.Sel {
			v := rows[j][c]
			if v.IsNull() {
				continue
			}
			if debug.Enabled {
				debug.Assertf(v.Kind() == types.KindInt, "typed hash-join key cell %d of row %d holds %s, want INT or NULL", c, j, v.Kind())
			}
			hs[n], sel[n] = intKeyHash(v.AsInt()), j
			n++
		}
		return hs[:n], sel[:n]
	}
	for _, j := range b.Sel {
		t := rows[j]
		if anyNull(t, keys) {
			continue
		}
		hs[n], sel[n] = hashCols(t, keys), j
		n++
	}
	return hs[:n], sel[:n]
}

// keyHash is the hash keyHashes gives the key cols of tuple, which must
// hold no NULL.
func (h *hashJoinBatch) keyHash(tuple []types.Value, keys []int) uint64 {
	if h.intKey {
		return intKeyHash(tuple[keys[0]].AsInt())
	}
	return hashCols(tuple, keys)
}

// intKeyHash is the splitmix64 finalizer over an INT key's payload. Each
// step (xor with a right shift of itself, multiplication by an odd
// constant) is invertible, so the whole map is a bijection on 64-bit
// words: two keys hash alike exactly when they are equal.
func intKeyHash(k int64) uint64 {
	x := uint64(k)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// joinBuild drains the build side into the join table, retaining the
// batches' row views (stable storage); rows with a NULL key are not
// inserted (keyHashes).
func (h *hashJoinBatch) joinBuild() {
	// The build side is buffered state: charge it against the query's
	// materialization budgets so a runaway build trips before OOM.
	meter := matTick{g: h.g}
	tripped := false
	for !tripped {
		b, ok := h.build.nextBatch()
		if !ok {
			break
		}
		hs, sel := h.keyHashes(b, h.buildKeys)
		rows := b.Rows()
		for k, j := range sel {
			h.table.add(hs[k], prel.Row{Tuple: rows[j], SC: b.SCAt(j)})
			if meter.width == 0 {
				meter.width = len(rows[j]) + 2
			}
			if meter.row() != nil {
				tripped = true // trip is recorded in the guard; drain surfaces it
				break
			}
		}
	}
	_ = meter.flush()
	h.table.finish()
	h.debugCheckJoinTable()
	h.built = true
}

// emit writes one joined pair into the output batch, restoring the
// left ++ right orientation from the build/probe roles.
func (h *hashJoinBatch) emit(built prel.Row, probe []types.Value, probeSC types.SC) {
	l, r, lsc, rsc := built.Tuple, probe, built.SC, probeSC
	if h.buildRight {
		l, r, lsc, rsc = probe, built.Tuple, probeSC, built.SC
	}
	h.out.Push(prel.Row{Tuple: h.gather.tuple(l, r), SC: h.agg.Combine(lsc, rsc)})
}

// joinGather writes the joined pairs of one join into arena tuples:
// left ++ right, or with ords the listed columns of left ++ right.
type joinGather struct {
	leftWidth int
	ords      []int // nil: left ++ right
	arena     projectArena
}

// tuple returns the output tuple of the pair (l, r).
func (g *joinGather) tuple(l, r []types.Value) []types.Value {
	t := g.arena.tuple()
	if g.ords == nil {
		copy(t, l)
		copy(t[len(l):], r)
		return t
	}
	for i, o := range g.ords {
		if o < g.leftWidth {
			t[i] = l[o]
		} else {
			t[i] = r[o-g.leftWidth]
		}
	}
	return t
}

// narrow makes the gather write only the columns outer lists, as
// ordinals over its current output.
func (g *joinGather) narrow(outer []int) {
	g.ords = composeOrds(g.ords, outer)
	g.arena.width = len(g.ords)
}

func (h *hashJoinBatch) nextBatch() (*prel.Batch, bool) {
	if !h.built {
		h.joinBuild()
	}
	if len(h.table.rows) == 0 {
		return nil, false // nothing can join: the probe input is never read
	}
	for {
		b, ok := h.probe.nextBatch()
		if !ok {
			return nil, false
		}
		if h.tick.stopN(b.Live()) {
			return nil, false
		}
		h.stats.JoinProbeBatches++
		if h.out == nil {
			h.out = prel.NewBatch(b.Live())
		}
		h.out.Reset()
		hs, sel := h.keyHashes(b, h.probeKeys)
		if cap(h.candSel) < len(hs) {
			// Room for one candidate per probe row, the common case.
			h.candSel, h.candRow = make([]int32, 0, len(hs)), make([]int32, 0, len(hs))
		}
		h.candSel, h.candRow = h.table.candidates(hs, h.candSel[:0], h.candRow[:0])
		rows, confirmed := b.Rows(), len(h.candSel)
		if !h.intKey {
			// Confirm every candidate, compacting the confirmed pairs in
			// place, before emitting any: the confirms' loads of build
			// tuples then overlap as the bucket lookups' did.
			confirmed = 0
			for c, k := range h.candSel {
				built := h.table.rows[h.candRow[c]].Tuple
				if equalOn(built, rows[sel[k]], h.buildKeys, h.probeKeys) {
					h.candSel[confirmed], h.candRow[confirmed] = k, h.candRow[c]
					confirmed++
				}
			}
		}
		for c, k := range h.candSel[:confirmed] {
			j := sel[k]
			h.emit(h.table.rows[h.candRow[c]], rows[j], b.SCAt(j))
		}
		if h.out.Live() > 0 {
			return h.out, true
		}
	}
}

// debugCheckJoinTable re-hashes every retained build row from its tuple,
// through the arm's own hash (keyHash), in prefdbdebug builds and checks
// that it sits in its hash's bucket: a stored hash that disagrees exposes
// a build row whose tuple changed after it was hashed. A no-op in normal
// builds.
func (h *hashJoinBatch) debugCheckJoinTable() {
	if !debug.Enabled {
		return
	}
	t := &h.table
	for b := 0; b+1 < len(t.start); b++ {
		for i := t.start[b]; i < t.start[b+1]; i++ {
			hash := t.hashes[i]
			debug.Assertf(h.keyHash(t.rows[i].Tuple, h.buildKeys) == hash,
				"hash-join build row %d under hash %#x re-hashes differently from its tuple", i, hash)
			debug.Assertf(t.bucket(hash) == b, "hash-join build row %d sits in bucket %d, its hash maps to bucket %d", i, b, t.bucket(hash))
		}
	}
}

// --- pipeline construction ---

// buildBatch compiles a plan node into a batch pipeline: the executor's
// one node dispatcher (see the package comment for the rules).
func (e *Executor) buildBatch(n algebra.Node) (batchIter, *schema.Schema, error) {
	switch x := n.(type) {
	case *algebra.Select, *algebra.Prefer:
		return e.buildBatchSegment(n)

	case *algebra.Values:
		return newSliceBatchSrc(x.Rel.Rows, e.batchSize()), x.Rel.Schema, nil

	case *algebra.Scan:
		return e.buildBatchScan(x, nil)

	case *algebra.Project:
		in, s, ords, err := e.buildUnprojected(x)
		if err != nil {
			return nil, nil, err
		}
		in, s = e.project(in, s, ords)
		return in, s, nil

	case *algebra.Join:
		in, s, ords, err := e.buildJoin(x)
		if err != nil {
			return nil, nil, err
		}
		in, s = e.project(in, s, ords)
		return in, s, nil

	case *algebra.GroupAgg:
		in, s, err := e.buildBatch(x.Input)
		if err != nil {
			return nil, nil, err
		}
		byOrds, aggOrds, out, err := groupAggPlan(x, s)
		if err != nil {
			return nil, nil, err
		}
		tab := newAggTable(byOrds, aggOrds, x.Aggs, e.gd)
		return &groupAggBatch{in: in, tab: tab, tick: pollTick{g: e.gd},
			stats: &e.stats, size: e.batchSize()}, out, nil

	case *algebra.Threshold:
		// A threshold reads only ⟨S,C⟩, so it filters below the projections
		// of its input and only the rows it keeps are projected.
		in, s, ords, err := e.buildUnprojected(x.Input)
		if err != nil {
			return nil, nil, err
		}
		if !x.Op.IsComparison() {
			return nil, nil, fmt.Errorf("exec: threshold operator %s is not a comparison", x.Op)
		}
		in, s = e.project(&thresholdBatch{in: in, by: x.By, op: x.Op, value: x.Value, tick: pollTick{g: e.gd}}, s, ords)
		return in, s, nil

	case *algebra.Set:
		return e.buildSet(x)

	case *algebra.TopK, *algebra.Skyline, *algebra.Rank, *algebra.OrderBy:
		return e.buildBlocking(n)

	case *algebra.Limit:
		in, s, err := e.buildBatch(x.Input)
		if err != nil {
			return nil, nil, err
		}
		return &limitBatch{in: in, skip: max(x.Offset, 0), left: max(x.N, 0), tick: pollTick{g: e.gd}}, s, nil

	case nil:
		return nil, nil, fmt.Errorf("exec: nil plan node")

	default:
		return nil, nil, fmt.Errorf("exec: unknown node type %T", n)
	}
}

// buildBlocking compiles the operators that need their whole input —
// top-k, skyline, rank and order-by — and serves the result in batches.
// Top-k pulls its input's batches through a bounded heap that keeps k
// rows (topK); the others drain their input once into a relation. Either
// way the pipeline root charges the input to Stats as a materialized
// relation.
func (e *Executor) buildBlocking(n algebra.Node) (batchIter, *schema.Schema, error) {
	if x, ok := n.(*algebra.TopK); ok {
		rows, s, err := e.topK(x)
		if err != nil {
			return nil, nil, err
		}
		return newSliceBatchSrc(rows, e.batchSize()), s, nil
	}
	rel, err := e.drain(n.Children()[0])
	if err != nil {
		return nil, nil, err
	}
	rows := rel.Rows
	switch x := n.(type) {
	case *algebra.Skyline:
		if len(x.Dims) == 0 {
			rows = skyline(rel.Rows)
		} else if rows, err = attrSkyline(rel, x.Dims, e.gd); err != nil {
			return nil, nil, err
		}
	case *algebra.Rank:
		if x.By == algebra.ByConf {
			rel.SortByConf()
		} else {
			rel.SortByScore()
		}
	case *algebra.OrderBy:
		if err := orderRows(rel, x.Keys); err != nil {
			return nil, nil, err
		}
	}
	return newSliceBatchSrc(rows, e.batchSize()), rel.Schema, nil
}

// topK streams x's input through a bounded heap (prel.TopKHeap). The
// projections at the top of the input do not run as an operator
// (buildUnprojected): the heap reads the batches beneath them and builds a
// row's projected tuple only when it cannot reject the row on ⟨S,C⟩ alone
// (TopKHeap.Rejects), so only rows that beat or tie the current cut are
// copied, into one spare tuple the heap hands back when it lets a row go.
// The root still charges every input row at the projection's width: the
// paper's filtering UDF reads its whole input.
func (e *Executor) topK(x *algebra.TopK) ([]prel.Row, *schema.Schema, error) {
	if err := e.gd.poll(); err != nil {
		return nil, nil, err
	}
	in, s, ords, err := e.buildUnprojected(x.Input)
	if err != nil {
		return nil, nil, err
	}
	out := s
	if ords != nil {
		out = s.Project(ords)
		if isIdentity(ords, s.Len()) {
			ords = nil
		}
	}
	top := prel.NewTopKHeap(x.K, x.By == algebra.ByConf)
	var spare []types.Value // nil ords: rows are offered as their own tuples
	err = e.root(x.Input, in, out).drive(func(b *prel.Batch) {
		rows := b.Rows()
		for _, j := range b.Sel {
			sc := b.SCAt(j)
			if top.Rejects(sc) {
				continue
			}
			t := rows[j]
			if ords != nil {
				if spare == nil {
					spare = make([]types.Value, len(ords))
				}
				for i, o := range ords {
					spare[i] = t[o]
				}
				t = spare
			}
			if gone := top.Push(prel.Row{Tuple: t, SC: sc}); ords != nil {
				spare = gone.Tuple
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return top.Rows(), out, nil
}

// buildBatchScan compiles a (possibly filtered) base-table access. When a
// filter conjunct allows, an index access path (an idBatchSrc) replaces the
// sequential scan; the remaining conjuncts run as a residual
// selection-vector kernel. A full-table access (no index path taken, so
// every conjunct is residual) streams the heap — or, when the table is
// columnar (catalog.Table.Columnar), its segment store, pruning segments
// on zone maps against the sargable conjuncts, which is sound precisely
// because the full conjunction still runs as the residual kernel over
// whatever survives.
func (e *Executor) buildBatchScan(scan *algebra.Scan, conjuncts []expr.Node) (batchIter, *schema.Schema, error) {
	t, err := e.Cat.Table(scan.Table)
	if err != nil {
		return nil, nil, err
	}
	s := t.Schema().Rename(scan.AliasName())

	var residual []expr.Node
	var index batchIter
	for i, c := range conjuncts {
		if index != nil {
			residual = append(residual, conjuncts[i:]...)
			break
		}
		if index = e.tryIndexPath(t, s, c); index == nil {
			residual = append(residual, c)
		}
	}
	var cond *expr.Compiled
	if len(residual) > 0 {
		if cond, err = expr.CompileCondition(expr.AndAll(residual), s, e.Funcs); err != nil {
			return nil, nil, err
		}
	}
	var bi batchIter
	tick := pollTick{g: e.gd}
	switch {
	case index != nil:
		bi = index
	case t.Columnar():
		preds := colstore.PredsFrom(s, conjuncts)
		bi = newSegBatchSrc(t.ColStore(), t.Heap, preds, &e.stats, tick, e.batchSize())
	default:
		bi = &heapBatchSrc{heap: t.Heap, stats: &e.stats, tick: tick, size: e.batchSize()}
	}
	if cond != nil {
		bi = &filterBatch{in: bi, cond: cond, stats: &e.stats, tick: pollTick{g: e.gd}}
	}
	return bi, s, nil
}

// buildBatchSegment compiles a σ/λ chain: the whole chain fuses into one
// segBatchIter kernel over the leaf's batch source — segBatchSrc windows
// over a columnar table, heapBatchSrc otherwise.
func (e *Executor) buildBatchSegment(n algebra.Node) (batchIter, *schema.Schema, error) {
	chain, cur := collectChain(n)
	var base batchIter
	var s *schema.Schema
	var err error
	switch leaf := cur.(type) {
	case *algebra.Scan:
		// A select directly over a scan keeps its shot at an index access
		// path, unless the optimizer derived it: that one only filters.
		var conjuncts []expr.Node
		if sel, ok := chain[len(chain)-1].(*algebra.Select); ok && !sel.Derived {
			conjuncts = expr.Conjuncts(sel.Cond)
			chain = chain[:len(chain)-1]
		}
		base, s, err = e.buildBatchScan(leaf, conjuncts)
	default:
		base, s, err = e.buildBatch(leaf)
	}
	if err != nil {
		return nil, nil, err
	}
	ops, err := e.compileSegOps(chain, s)
	if err != nil {
		return nil, nil, err
	}
	if len(ops) == 0 {
		return base, s, nil
	}
	return &segBatchIter{in: base, ops: ops, agg: e.Agg,
		stats: &e.stats, tick: pollTick{g: e.gd}}, s, nil
}

// buildJoin compiles the extended inner join ⋈_{φ,F}. Equi-conjuncts
// over opposite sides select hashJoinBatch, whose probe side streams
// batches; with no equi-conjunct an nlJoinBatch pairs every row. Both
// write the join's Cols through their gather. A residual condition reads
// left ++ right, so it runs as a vectorized filter over the full pairs
// and the ordinals of the Cols come back unapplied, for the caller to
// apply (project) or compose with a projection above (buildUnprojected).
func (e *Executor) buildJoin(j *algebra.Join) (batchIter, *schema.Schema, []int, error) {
	lBi, lS, err := e.buildBatch(j.Left)
	if err != nil {
		return nil, nil, nil, err
	}
	rBi, rS, err := e.buildBatch(j.Right)
	if err != nil {
		return nil, nil, nil, err
	}
	out := lS.Concat(rS)
	var ords []int
	if j.Cols != nil {
		if ords, err = ordinalsOf(out, j.Cols); err != nil {
			return nil, nil, nil, err
		}
	}

	eqL, eqR, residual := splitEquiJoin(j.Cond, lS, rS)
	gather := joinGather{leftWidth: lS.Len()}
	gather.arena.width = out.Len()
	if residual == nil && ords != nil {
		gather.narrow(ords)
		out, ords = out.Project(ords), nil
	}
	var base batchIter
	if len(eqL) > 0 {
		base = e.newHashJoin(j, lBi, rBi, eqL, eqR, intKeyJoin(j, lS, rS, eqL, eqR), gather)
	} else {
		base = &nlJoinBatch{left: lBi, right: rBi, agg: e.Agg, stats: &e.stats, gather: gather,
			meter: matTick{g: e.gd, width: rS.Len() + 2}, tick: pollTick{g: e.gd}, size: e.batchSize()}
	}
	if residual == nil {
		return base, out, nil, nil
	}
	cond, err := expr.CompileCondition(residual, out, e.Funcs)
	if err != nil {
		return nil, nil, nil, err
	}
	return &filterBatch{in: base, cond: cond, stats: &e.stats, tick: pollTick{g: e.gd}}, out, ords, nil
}

// newHashJoin wires a hash join over the compiled inputs, building on the
// side the plan marks (left unless BuildRight), on the typed arm when
// intKey, and emitting every match through gather.
func (e *Executor) newHashJoin(j *algebra.Join, lBi, rBi batchIter, eqL, eqR []int, intKey bool, gather joinGather) *hashJoinBatch {
	h := &hashJoinBatch{build: lBi, probe: rBi, buildKeys: eqL, probeKeys: eqR,
		buildRight: j.BuildRight, intKey: intKey, gather: gather,
		agg: e.Agg, stats: &e.stats, g: e.gd, tick: pollTick{g: e.gd}}
	if j.BuildRight {
		h.build, h.probe, h.buildKeys, h.probeKeys = rBi, lBi, eqR, eqL
	}
	return h
}

// intKeyJoin reports whether a hash join takes the typed arm: one
// equi-key, both of whose columns are declared INT, over inputs whose
// cells are known to hold their declared kinds (holdsKinds).
func intKeyJoin(j *algebra.Join, lS, rS *schema.Schema, eqL, eqR []int) bool {
	return len(eqL) == 1 &&
		lS.Columns[eqL[0]].Kind == types.KindInt && rS.Columns[eqR[0]].Kind == types.KindInt &&
		holdsKinds(j.Left) && holdsKinds(j.Right)
}

// holdsKinds reports whether every cell n outputs is NULL or of its
// column's declared kind. A scan's cells are: the heap checks every
// stored cell against its column (schema.CheckTuple), and a columnar
// scan's row views are the heap's tuples. A Values leaf's are when the
// executor drained it from such a plan (Executor.temp). The operators
// that only pass cells through — select, prefer, the filtering
// operators, a projection of columns, a join — hold whatever their
// inputs hold. Anything else makes cells of its own — a γ's aggregates,
// a set operation's union of two layouts — and is not known to.
func holdsKinds(n algebra.Node) bool {
	switch x := n.(type) {
	case *algebra.Scan:
		return true
	case *algebra.Values:
		return x.HoldsKinds
	case *algebra.Select, *algebra.Prefer, *algebra.Project, *algebra.Join,
		*algebra.TopK, *algebra.Threshold, *algebra.Skyline, *algebra.Rank,
		*algebra.OrderBy, *algebra.Limit:
		for _, c := range n.Children() {
			if !holdsKinds(c) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// buildUnprojected compiles n with the projections at its top left
// unapplied: it returns the pipeline beneath them, that pipeline's schema
// and the projections composed into one list of ordinals over it (nil
// when n is not a projection, nor a join whose Cols a residual filter
// keeps out of its gather). A stack of projections thus costs at most one
// copy, and a consumer that reads only ⟨S,C⟩ or keeps few rows (a
// threshold, top-k) can copy only the rows it keeps. A projection over a
// join's gather is the exception: it runs inside the join, which then
// writes each match already narrowed.
func (e *Executor) buildUnprojected(n algebra.Node) (batchIter, *schema.Schema, []int, error) {
	var p *algebra.Project
	switch x := n.(type) {
	case *algebra.Join:
		return e.buildJoin(x)
	case *algebra.Project:
		p = x
	default:
		in, s, err := e.buildBatch(n)
		return in, s, nil, err
	}
	in, s, inner, err := e.buildUnprojected(p.Input)
	if err != nil {
		return nil, nil, nil, err
	}
	cur := s // the schema p reads
	if inner != nil {
		cur = s.Project(inner)
	}
	ords, err := ordinalsOf(cur, p.Cols)
	if err != nil {
		return nil, nil, nil, err
	}
	var g *joinGather
	switch j := in.(type) {
	case *hashJoinBatch:
		g = &j.gather
	case *nlJoinBatch:
		g = &j.gather
	}
	if g != nil {
		g.narrow(ords)
		return in, cur.Project(ords), nil, nil
	}
	return in, s, composeOrds(inner, ords), nil
}

// composeOrds returns the ordinals of outer∘inner: column i of the result
// is column inner[outer[i]] (outer[i] when inner is nil).
func composeOrds(inner, outer []int) []int {
	if inner == nil {
		return outer
	}
	out := make([]int, len(outer))
	for i, o := range outer {
		out[i] = inner[o]
	}
	return out
}

// project applies the ordinals buildUnprojected left unapplied: nil ords
// pass in through, other ords narrow it through a projectBatch (an
// identity one when ords lists every column of s in order).
func (e *Executor) project(in batchIter, s *schema.Schema, ords []int) (batchIter, *schema.Schema) {
	if ords == nil {
		return in, s
	}
	pb := &projectBatch{in: in, stats: &e.stats}
	if !isIdentity(ords, s.Len()) {
		pb.ords = ords
		pb.arena.width = len(ords)
	}
	return pb, s.Project(ords)
}

// isIdentity reports whether ords is 0..n-1.
func isIdentity(ords []int, n int) bool {
	if len(ords) != n {
		return false
	}
	for i, o := range ords {
		if o != i {
			return false
		}
	}
	return true
}

// ordinalsOf resolves column references against s.
func ordinalsOf(s *schema.Schema, cols []expr.Col) ([]int, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		idx, err := s.IndexOf(c.Table, c.Name)
		if err != nil {
			return nil, err
		}
		ords[i] = idx
	}
	return ords, nil
}
