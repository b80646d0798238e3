// Streaming execution: RowStream exposes one query execution as a pull
// iterator instead of a materialized p-relation, so a consumer (the
// network server's result-batch writer, a shell printing rows) can
// forward rows as they are produced without holding the whole result.
//
// Streaming shares the pipeline root with RunContext: the Native strategy
// opens its plan as a pipeline (executor.go) and the stream is only a row
// cursor over the batches the root pulls and charges, so a fully drained
// stream leaves Stats byte-identical to RunContext. The materializing
// strategies (BU, GBU, FtP) run to completion first — materialization
// boundaries are their semantics — and stream the final relation through
// a sliceBatchSrc, which costs no extra copy of the rows.
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
	src batchIter
	// root is the Native strategy's pipeline root (src itself), settled at
	// exhaustion; nil when src serves an already materialized result.
	root *pipeline

	b    *prel.Batch
	pos  int
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
		if err = e.guardOr(err); err != nil {
			return nil, err
		}
		return &RowStream{e: e, sch: rel.Schema, src: newSliceBatchSrc(rel.Rows, e.batchSize())}, nil
	}
	// Materialize's native call, with the pipeline handed to the caller.
	if err := e.gd.poll(); err != nil {
		return nil, e.guardOr(err)
	}
	e.stats.NativeCalls++
	p, err := e.open(plan)
	if err != nil {
		return nil, err
	}
	return &RowStream{e: e, sch: p.sch, src: p, root: p}, nil
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
// failure; check Err after the loop.
func (s *RowStream) Next() bool {
	if s.done {
		return false
	}
	if s.b == nil || s.pos >= s.b.Live() {
		b, ok := s.src.nextBatch()
		if !ok {
			s.done = true
			if s.root != nil {
				if err := s.root.close(); err != nil {
					s.err = s.e.guardOr(err)
				}
			}
			return false
		}
		s.b, s.pos = b, 0
	}
	s.cur = s.b.Row(s.pos)
	s.pos++
	return true
}

// Row returns the current row; valid only until the next call to Next.
func (s *RowStream) Row() prel.Row { return s.cur }

// Err returns the failure that terminated the stream, nil after a clean
// drain. Lifecycle trips surface as *GuardError exactly as in RunContext.
func (s *RowStream) Err() error { return s.err }

// Close stops the stream early. The stream runs on the caller's goroutine,
// so Close only marks it exhausted; Stats of a stream closed before
// exhaustion count the batches pulled but no materialized rows. Close is
// idempotent and returns Err.
func (s *RowStream) Close() error {
	s.done = true
	return s.err
}
