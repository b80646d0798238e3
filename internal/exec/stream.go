// Streaming execution: RowStream exposes one query execution as a pull
// iterator instead of a materialized p-relation, so a consumer (the
// network server's result-batch writer, a shell printing rows) can
// forward rows as they are produced without holding the whole result.
//
// Stats parity: a fully drained stream leaves the executor's Stats
// byte-identical to RunContext for the same plan and strategy. The Native
// strategy streams its single pipeline end-to-end — the result relation
// is never built — while mirroring drain's accounting (the native call,
// per-row materialization counters, the amortized guard meter, the
// prefer-root R_P counting rule). The materializing strategies (BU, GBU,
// FtP) run to completion first — materialization boundaries are their
// semantics — and stream the final relation, which costs no extra copy.
package exec

import (
	"context"
	"fmt"

	"prefdb/internal/algebra"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
)

// RowStream is a pull-based result stream over one strategy execution.
// Not safe for concurrent use. The Row returned by Row is valid only
// until the next call to Next (batch and arena storage is reused);
// consumers that keep rows must copy the tuple out.
type RowStream struct {
	e   *Executor
	sch *schema.Schema

	// Exactly one source is active: rows for pre-materialized strategies,
	// bi for the native pipeline.
	rows []prel.Row
	pos  int
	bi   batchIter
	b    *prel.Batch
	bpos int

	// native marks a stream that owns drain-style accounting; the
	// materializing strategies already accounted everything in Stats.
	native     bool
	preferRoot bool
	meter      matTick

	streamed int
	scored   int

	cur  prel.Row
	err  error
	done bool
}

// StreamContext starts a streaming evaluation of plan with the chosen
// strategy under ctx and the executor's Limits; it is the streaming
// sibling of RunContext with the same lifecycle and error contract.
// The caller must drain the stream (Next until false) or Close it, then
// check Err; a fully drained stream leaves Stats identical to RunContext.
func (e *Executor) StreamContext(ctx context.Context, plan algebra.Node, strategy Strategy) (*RowStream, error) {
	e.arm(ctx, e.Limits)
	if plan == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	if strategy != Native {
		rel, err := e.runStrategy(plan, strategy)
		if gErr := e.GuardErr(); gErr != nil {
			return nil, gErr
		}
		if err != nil {
			return nil, err
		}
		return &RowStream{e: e, sch: rel.Schema, rows: rel.Rows}, nil
	}

	// Mirror Materialize → drain for the Native strategy, but hand the
	// pipeline to the caller instead of exhausting it here.
	if err := e.gd.poll(); err != nil {
		return nil, e.guardOr(err)
	}
	e.stats.NativeCalls++
	_, preferRoot := plan.(*algebra.Prefer)
	s := &RowStream{e: e, native: true, preferRoot: preferRoot}
	bi, sch, err := e.buildBatch(plan)
	if err != nil {
		return nil, err
	}
	s.bi, s.sch = bi, sch
	s.meter = matTick{g: e.gd, width: s.sch.Len() + 2}
	return s, nil
}

// guardOr returns the stats-filled guard error if the guard tripped, or
// err unchanged.
func (e *Executor) guardOr(err error) error {
	if gErr := e.GuardErr(); gErr != nil {
		return gErr
	}
	return err
}

// Schema returns the stream's result schema.
func (s *RowStream) Schema() *schema.Schema { return s.sch }

// Next advances to the next row, reporting false at exhaustion or
// failure; check Err after the loop. On the native path it meters
// materialization against the lifecycle guard exactly like RunContext.
func (s *RowStream) Next() bool {
	if s.done || s.err != nil {
		return false
	}
	row, ok := s.pull()
	if !ok {
		if s.err == nil {
			s.finish()
		}
		return false
	}
	s.cur = row
	if s.native {
		s.streamed++
		if !row.SC.IsBottom() {
			s.scored++
		}
	}
	return true
}

// pull fetches one row from whichever source feeds the stream.
func (s *RowStream) pull() (prel.Row, bool) {
	if s.bi == nil {
		if s.pos >= len(s.rows) {
			return prel.Row{}, false
		}
		row := s.rows[s.pos]
		s.pos++
		return row, true
	}
	for s.b == nil || s.bpos >= s.b.Live() {
		b, ok := s.bi.nextBatch()
		if !ok {
			return prel.Row{}, false
		}
		s.e.stats.Batches++
		if b.Columnar() {
			s.e.stats.RowsMaterialized += b.Live()
		}
		// Charge the whole batch when it arrives — the same amortized
		// pattern pump uses — so guard trip points match the
		// materialized path.
		if gErr := s.meter.rows(b.Live()); gErr != nil {
			s.fail(gErr)
			return prel.Row{}, false
		}
		s.b, s.bpos = b, 0
	}
	row := s.b.Row(s.bpos)
	s.bpos++
	return row, true
}

// finish settles accounting at exhaustion, mirroring drain: flush the
// guard meter, surface a mid-stream trip (inner iterators stop yielding
// rather than erroring), then fold the streamed rows into Stats under the
// prefer-root R_P rule.
func (s *RowStream) finish() {
	s.done = true
	if !s.native {
		return
	}
	if gErr := s.meter.flush(); gErr != nil {
		s.fail(gErr)
		return
	}
	if gErr := s.e.gd.poll(); gErr != nil {
		s.fail(gErr)
		return
	}
	if s.preferRoot {
		// R_P rows are (pk, score, conf) triples regardless of width.
		s.e.stats.TuplesMaterialized += s.scored
		s.e.stats.CellsMaterialized += s.scored * 3
	} else {
		s.e.stats.TuplesMaterialized += s.streamed
		s.e.stats.CellsMaterialized += s.streamed * (s.sch.Len() + 2)
	}
	s.e.stats.ScoreRelationRows += s.scored
}

// fail records the stream failure with the executor's Stats filled in.
func (s *RowStream) fail(err error) {
	s.done = true
	s.err = s.e.guardOr(err)
}

// Row returns the current row; valid only until the next call to Next.
func (s *RowStream) Row() prel.Row { return s.cur }

// Err returns the failure that terminated the stream, nil after a clean
// drain. Lifecycle trips surface as *GuardError exactly as in RunContext.
func (s *RowStream) Err() error { return s.err }

// Close stops the stream early. The stream runs on the caller's goroutine,
// so Close only marks it exhausted; Stats of a stream closed before exhaustion reflect the rows
// actually streamed. Close is idempotent and returns Err.
func (s *RowStream) Close() error {
	s.done = true
	return s.err
}
