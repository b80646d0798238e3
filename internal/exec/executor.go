// Package exec implements prefdb's execution layer: a pipelined (volcano)
// executor for extended query plans — playing the role of the "native
// database engine" of the paper — plus the paper's query evaluation
// strategies Bottom-Up (BU), Group Bottom-Up (GBU) and Filter-then-Prefer
// (FtP), which differ in where they materialize intermediate p-relations.
package exec

import (
	"fmt"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
)

// Stats counts the cost drivers of a query execution. The paper identifies
// the size of intermediate relations as the dominant cost ("the most
// critical parameter that shapes the processing cost is the disk I/Os,
// which in turn depends on the size of the intermediate relations"), so
// TuplesMaterialized is the primary shape metric in experiments.
type Stats struct {
	// RowsScanned counts base-table tuples read from heaps.
	RowsScanned int
	// TuplesMaterialized counts rows written into intermediate relations
	// (the materialization boundaries differ per strategy).
	TuplesMaterialized int
	// CellsMaterialized counts attribute values written into intermediate
	// relations (rows × width) — the byte-volume proxy that makes
	// projection pushdown visible, since narrowing a relation reduces
	// cells but not rows.
	CellsMaterialized int
	// NativeCalls counts pipelines delegated to the native executor — the
	// analogue of SQL statements sent to the host DBMS.
	NativeCalls int
	// IndexProbes counts index lookups taken instead of scans.
	IndexProbes int
	// PreferEvals counts tuples processed by prefer operators.
	PreferEvals int
	// ScoreRelationRows counts rows held in score relations R_P (only
	// non-default pairs are stored).
	ScoreRelationRows int
	// ScoreEvals counts score-expression evaluations by prefer operators:
	// one per tuple whose conditional part held.
	ScoreEvals int
	// CacheHits and CacheMisses are always zero; kept until a benchmark
	// PR retires exec.score_cache_hit_ratio.
	CacheHits   int
	CacheMisses int
	// Batches counts the row batches drained at a pipeline root. The
	// counters from here down are diagnostic, not cost drivers: they
	// describe how the pipeline was blocked and which storage form it
	// read, so they legitimately differ across batch sizes and colstore
	// modes, while every counter above is identical across both (see
	// Executor).
	Batches int
	// SegmentsScanned counts columnar segments actually read by colstore
	// scans; SegmentsSkipped counts segments dropped unread by zone-map
	// pruning (skipped segments still credit their live rows to
	// RowsScanned, so that counter matches the heap scan).
	SegmentsScanned int
	SegmentsSkipped int
	// ColBatches counts columnar (direct-on-column) batches emitted by
	// colstore scans; RowsMaterialized counts selected rows of columnar
	// batches that crossed the late-materialization boundary (Batch.Rows):
	// an operator that reads a columnar batch's row views — row-path
	// filter conjuncts or scores, a hash join on its build or probe side,
	// a nested-loop join, γ, a projection, the pipeline root — counts the
	// rows selected as the batch enters it, whether or not they survive.
	// RowsMaterialized ≪ RowsScanned on selective plans is the direct
	// path's shape signature.
	ColBatches       int
	RowsMaterialized int
	// JoinProbeBatches counts probe-side batches processed by the hash
	// join, row or columnar alike.
	JoinProbeBatches int
}

// Add accumulates another stats record.
func (s *Stats) Add(o Stats) {
	s.RowsScanned += o.RowsScanned
	s.TuplesMaterialized += o.TuplesMaterialized
	s.CellsMaterialized += o.CellsMaterialized
	s.NativeCalls += o.NativeCalls
	s.IndexProbes += o.IndexProbes
	s.PreferEvals += o.PreferEvals
	s.ScoreRelationRows += o.ScoreRelationRows
	s.ScoreEvals += o.ScoreEvals
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Batches += o.Batches
	s.SegmentsScanned += o.SegmentsScanned
	s.SegmentsSkipped += o.SegmentsSkipped
	s.ColBatches += o.ColBatches
	s.RowsMaterialized += o.RowsMaterialized
	s.JoinProbeBatches += o.JoinProbeBatches
}

// String renders the counters compactly. The scoring counter only appears
// when a prefer operator scored a tuple.
func (s Stats) String() string {
	out := fmt.Sprintf("scanned=%d materialized=%d cells=%d nativeCalls=%d indexProbes=%d preferEvals=%d scoreRows=%d",
		s.RowsScanned, s.TuplesMaterialized, s.CellsMaterialized, s.NativeCalls, s.IndexProbes, s.PreferEvals, s.ScoreRelationRows)
	if s.ScoreEvals != 0 {
		out += fmt.Sprintf(" scoreEvals=%d", s.ScoreEvals)
	}
	if s.Batches != 0 {
		out += fmt.Sprintf(" batches=%d", s.Batches)
	}
	if s.SegmentsScanned != 0 || s.SegmentsSkipped != 0 {
		out += fmt.Sprintf(" segments=%d skipped=%d", s.SegmentsScanned, s.SegmentsSkipped)
	}
	if s.ColBatches != 0 || s.RowsMaterialized != 0 {
		out += fmt.Sprintf(" colBatches=%d rowsMaterialized=%d", s.ColBatches, s.RowsMaterialized)
	}
	if s.JoinProbeBatches != 0 {
		out += fmt.Sprintf(" joinProbeBatches=%d", s.JoinProbeBatches)
	}
	return out
}

// Executor evaluates extended query plans against a catalog through one
// vectorized pipeline (see batch.go). An Executor is not safe for
// concurrent use — create one per query. It runs every plan on the
// caller's goroutine and starts none of its own.
//
// Contract: results, row order and the non-diagnostic Stats counters are
// byte-identical over the heap and the columnar segment store, at every
// batch size and on any core count, with one exception: a Limit that stops its input early stops it on a
// batch boundary, so the counters of the operators beneath it depend on
// the batch size. The paper's semantics are pinned separately by a
// test-only tuple-at-a-time oracle (oracle_test.go).
//
// Executions started through RunContext (or after Begin) observe the
// given context and the executor's Limits cooperatively: see lifecycle.go.
type Executor struct {
	Cat   *catalog.Catalog
	Funcs *expr.Registry
	// Agg is the aggregate function F used by every score-combining
	// operator in the query (the paper assumes one F per query).
	Agg pref.Aggregate
	// Limits bounds the next guarded run (RunContext / Begin); the zero
	// value imposes no bounds.
	Limits Limits
	// BatchSize overrides the rows-per-batch block size (0 =
	// defaultBatchSize); tests set it to drive batch-boundary cases.
	BatchSize int

	stats Stats
	// gd is the lifecycle guard of the current run; nil (the default)
	// disables all cancellation and budget checks.
	gd *guard
	// own is the intermediate relation the running strategy created last
	// (see temp), the one relation drain may score in place. It is
	// cleared when the run ends, so a relation handed to the caller is
	// never written again.
	own *prel.PRelation
}

// New returns an executor using the scoring-function registry and F_S.
func New(cat *catalog.Catalog) *Executor {
	return &Executor{Cat: cat, Funcs: pref.Functions(), Agg: pref.FSum{}}
}

// Stats returns the counters accumulated since the last ResetStats.
func (e *Executor) Stats() Stats { return e.stats }

// ResetStats clears the counters.
func (e *Executor) ResetStats() { e.stats = Stats{} }

// Materialize runs a plan as one native pipeline and materializes the
// result, counting one native call.
func (e *Executor) Materialize(n algebra.Node) (*prel.PRelation, error) {
	e.stats.NativeCalls++
	return e.drain(n)
}

// Evaluate runs a plan in the preference-engine/middleware layer: the
// result is materialized and counted, but no native call is recorded. The
// plug-in baselines use it for operations the paper performs outside the
// DBMS (score aggregation, filtering).
func (e *Executor) Evaluate(n algebra.Node) (*prel.PRelation, error) {
	return e.drain(n)
}

// drain builds and exhausts a pipeline into a fresh relation without
// counting a native call (used by engines for operator-at-a-time
// execution). The rows are spooled and copied once into an exactly sized
// slice (rowSpool). A chain of prefer operators over a relation the
// running strategy created is the exception: it is scored in place
// (scoreInPlace) and drain returns that relation.
func (e *Executor) drain(n algebra.Node) (*prel.PRelation, error) {
	if rel := e.inPlace(n); rel != nil {
		return e.scoreInPlace(n, rel)
	}
	var sp rowSpool
	s, err := e.pump(n, sp.add)
	if err != nil {
		return nil, err
	}
	return &prel.PRelation{Schema: s, Rows: sp.rows()}, nil
}

// temp wraps a relation the running strategy created — BU's R, GBU's G,
// FtP's R_NP — in a Values leaf and records it as the executor's own, so
// a prefer over it may write ⟨S,C⟩ into its rows. Ownership is this
// record, never the label: a Values the caller built is only ever read.
// The record holds one relation, the last created: every strategy feeds a
// prefer the temporary it has just made, and a longer record would keep
// every consumed temporary alive until the run ends. from is the plan rel
// was drained from: its cells hold their declared kinds when from's do
// (holdsKinds), since draining copies cells and makes none.
func (e *Executor) temp(rel *prel.PRelation, label string, from algebra.Node) *algebra.Values {
	e.own = rel
	return &algebra.Values{Rel: rel, Label: label, HoldsKinds: holdsKinds(from)}
}

// inPlace returns the relation n scores in place: n is a chain of prefer
// operators (no selection, so every row survives) directly over a Values
// leaf of the relation the executor owns. It returns nil for any other
// plan.
func (e *Executor) inPlace(n algebra.Node) *prel.PRelation {
	chain, leaf := collectChain(n)
	v, ok := leaf.(*algebra.Values)
	if !ok || len(chain) == 0 || e.own == nil || v.Rel != e.own {
		return nil
	}
	for _, op := range chain {
		if _, ok := op.(*algebra.Prefer); !ok {
			return nil
		}
	}
	return v.Rel
}

// scoreInPlace runs a prefer chain over rel and writes each batch's ⟨S,C⟩
// back into rel's rows — the paper's in-place update of the score
// relation R_P (§VI) — instead of spooling a copy. The Values source
// serves rel's rows in order and a prefer chain drops none, so batch slot
// j of the i-th batch is row offset+j. The pipeline root charges the run
// exactly as it charges a copying drain.
func (e *Executor) scoreInPlace(n algebra.Node, rel *prel.PRelation) (*prel.PRelation, error) {
	off := 0
	_, err := e.pump(n, func(b *prel.Batch) {
		if debug.Enabled {
			debug.Assertf(b.Live() == b.Cap() && off+b.Cap() <= len(rel.Rows),
				"in-place prefer batch at row %d: %d of %d slots live", off, b.Live(), b.Cap())
		}
		rows := rel.Rows[off : off+b.Cap()]
		for j := range rows {
			rows[j].SC = b.SCAt(int32(j))
		}
		off += b.Cap()
	})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// pump runs n through a pipeline root, handing every batch to sink: a
// copying drain spools the rows, an in-place one writes their pairs back.
// Either way the root charges them as n's materialized result.
func (e *Executor) pump(n algebra.Node, sink func(*prel.Batch)) (*schema.Schema, error) {
	p, err := e.open(n)
	if err != nil {
		return nil, err
	}
	if err := p.drive(sink); err != nil {
		return nil, err
	}
	return p.sch, nil
}

// drive hands every batch the pipeline yields to sink, then closes it.
func (p *pipeline) drive(sink func(*prel.Batch)) error {
	for b, ok := p.nextBatch(); ok; b, ok = p.nextBatch() {
		sink(b)
	}
	return p.close()
}

// pipeline is the root of a running plan: the one place that charges
// Stats and the lifecycle guard for the batches a consumer pulls (drain,
// top-k, RowStream). Open it, pull until nextBatch reports false, then
// close it to settle the accounting.
type pipeline struct {
	e   *Executor
	in  batchIter
	sch *schema.Schema
	// prefer marks a Prefer root, which writes R_P instead of copying its
	// input (see close).
	prefer       bool
	meter        matTick
	rows, scored int
}

// open polls the guard, then builds n as a batch pipeline. Strategy loops
// re-enter it once per operator/group, so the entry poll bounds how much
// work a canceled BU/GBU/FtP run still starts.
func (e *Executor) open(n algebra.Node) (*pipeline, error) {
	if err := e.gd.poll(); err != nil {
		return nil, err
	}
	bi, s, err := e.buildBatch(n)
	if err != nil {
		return nil, err
	}
	return e.root(n, bi, s), nil
}

// root makes bi, the compiled n with output schema s, a pipeline root.
func (e *Executor) root(n algebra.Node, bi batchIter, s *schema.Schema) *pipeline {
	_, prefer := n.(*algebra.Prefer)
	return &pipeline{e: e, in: bi, sch: s, prefer: prefer, meter: matTick{g: e.gd, width: s.Len() + 2}}
}

// nextBatch pulls one batch and charges it: the batch count, the columnar
// rows crossing into row form at the root, and the guard meter. It reports
// false at exhaustion or when the meter trips; close surfaces the trip.
func (p *pipeline) nextBatch() (*prel.Batch, bool) {
	b, ok := p.in.nextBatch()
	if !ok {
		return nil, false
	}
	st := &p.e.stats
	st.Batches++
	if b.Columnar() {
		st.RowsMaterialized += b.Live()
	}
	p.rows += b.Live()
	if p.prefer {
		for _, j := range b.Sel {
			if b.Known[j] {
				p.scored++
			}
		}
	}
	if p.meter.rows(b.Live()) != nil {
		return nil, false
	}
	return b, true
}

// close settles an exhausted pipeline: it flushes the guard meter and
// surfaces a trip (inner operators stop yielding rather than erroring, so
// no partial result escapes), then charges the rows pulled as
// materialized. A prefer operator does not copy its input relation — the
// paper's implementation updates the score relation R_P in place — so a
// Prefer root counts only the rows carrying non-default pairs (the R_P
// writes), and only a Prefer root adds to ScoreRelationRows: any other
// root merely carries pairs an earlier R_P already counted.
func (p *pipeline) close() error {
	if err := p.meter.flush(); err != nil {
		return err
	}
	if err := p.e.gd.poll(); err != nil {
		return err
	}
	st := &p.e.stats
	if p.prefer {
		// R_P rows are (pk, score, conf) triples regardless of the base
		// relation's width.
		st.TuplesMaterialized += p.scored
		st.CellsMaterialized += p.scored * 3
		st.ScoreRelationRows += p.scored
	} else {
		st.TuplesMaterialized += p.rows
		st.CellsMaterialized += p.rows * (p.sch.Len() + 2)
	}
	return nil
}

// spoolChunkRows caps the rows of one rowSpool chunk.
const spoolChunkRows = 8192

// rowSpool collects the selected rows of drained batches into chunks and
// hands them back as one exactly sized slice. Growing one slice by append
// would allocate (and clear) about five times the final slice; the spool
// allocates the rows once in chunks and once in the result. A batch goes
// whole into a chunk with room for it, else into a new chunk holding as
// many rows as the spool already has (at least the batch, at most
// spoolChunkRows otherwise). The first chunk holds exactly the first batch,
// so a single-batch drain allocates only its result. A spool is local to
// one drain: nested drains (a blocking operator's input, a set operation's
// sides) each own theirs.
type rowSpool struct {
	chunks [][]prel.Row
	n      int
}

// add copies the selected rows of b into the spool.
func (sp *rowSpool) add(b *prel.Batch) {
	last := len(sp.chunks) - 1
	if last < 0 || cap(sp.chunks[last])-len(sp.chunks[last]) < b.Live() {
		sp.chunks = append(sp.chunks, make([]prel.Row, 0, max(b.Live(), min(sp.n, spoolChunkRows))))
		last++
	}
	sp.chunks[last] = b.AppendRows(sp.chunks[last])
	sp.n += b.Live()
}

// rows returns the spooled rows in order as one slice of length and
// capacity n.
func (sp *rowSpool) rows() []prel.Row {
	switch len(sp.chunks) {
	case 0:
		return nil
	case 1:
		return sp.chunks[0]
	}
	out := make([]prel.Row, 0, sp.n)
	for _, c := range sp.chunks {
		out = append(out, c...)
	}
	return out
}
