// Per-connection protocol handling: handshake, the frame reader loop,
// statement goroutines and the serialized frame writer.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"prefdb/internal/engine"
	"prefdb/internal/exec"
	"prefdb/internal/parser"
	"prefdb/internal/prel"
	"prefdb/internal/types"
	"prefdb/internal/wire"
)

// conn is one client connection: an engine session plus protocol state.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	sess     *engine.Session
	defaults []engine.QueryOption // session defaults from the handshake

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	mu sync.Mutex
	// running holds the cancel funcs of in-flight statements; stmts the
	// prepared handles; inflight the per-session admission count.
	running  map[uint64]context.CancelFunc // prefdb:guarded-by mu
	stmts    map[uint64]*engine.Prepared   // prefdb:guarded-by mu
	nextStmt uint64                        // prefdb:guarded-by mu
	inflight int                           // prefdb:guarded-by mu

	wg sync.WaitGroup // statement goroutines
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:     s,
		nc:      nc,
		br:      bufio.NewReader(nc),
		bw:      bufio.NewWriter(nc),
		running: map[uint64]context.CancelFunc{},
		stmts:   map[uint64]*engine.Prepared{},
	}
}

// close tears the connection down; the reader loop unblocks with a read
// error and serve() joins the statement goroutines.
func (c *conn) close() { c.nc.Close() }

// writeFrame serializes one frame write; result streams from concurrent
// statements interleave at frame granularity (each frame carries its
// query id).
func (c *conn) writeFrame(t wire.FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.bw, t, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// writeError sends a structured error frame for qid.
func (c *conn) writeError(qid uint64, err error) {
	var e wire.Encoder
	e.Uvarint(qid)
	e.Error(err)
	_ = c.writeFrame(wire.FrameError, e.Bytes())
}

// serve runs the connection to completion: handshake, then the frame
// reader loop. It returns only after every statement goroutine finished.
func (c *conn) serve() {
	defer func() {
		// Cancel whatever is still running, join, then release resources.
		c.mu.Lock()
		for _, cancel := range c.running {
			cancel()
		}
		c.mu.Unlock()
		c.wg.Wait()
		if c.sess != nil {
			c.sess.Close()
		}
		c.nc.Close()
	}()

	if err := c.handshake(); err != nil {
		return
	}

	for {
		t, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				c.srv.log.Printf("conn %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		switch t {
		case wire.FrameQuery:
			c.handleQuery(payload)
		case wire.FrameStmtRun:
			c.handleStmtRun(payload)
		case wire.FramePrepare:
			c.handlePrepare(payload)
		case wire.FrameStmtClose:
			c.handleStmtClose(payload)
		case wire.FrameCancel:
			c.handleCancel(payload)
		default:
			c.srv.log.Printf("conn %s: unexpected frame %#x", c.nc.RemoteAddr(), byte(t))
			return
		}
	}
}

// handshake validates the Hello frame and creates the engine session.
func (c *conn) handshake() error {
	t, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return err
	}
	if t != wire.FrameHello {
		return fmt.Errorf("server: expected hello, got frame %#x", byte(t))
	}
	d := wire.NewDecoder(payload)
	magic := d.String()
	version := d.Uvarint()
	token := d.String()
	settings := d.Settings()
	if err := d.Err(); err != nil {
		return err
	}
	fail := func(err error) error {
		c.writeError(0, err)
		return err
	}
	switch {
	case magic != wire.Magic:
		return fmt.Errorf("server: bad magic %q", magic)
	case version != wire.Version:
		return fail(fmt.Errorf("server: protocol version %d unsupported (server speaks %d)", version, wire.Version))
	case c.srv.opts.Token != "" && token != c.srv.opts.Token:
		return fail(errors.New("server: authentication failed"))
	case settings.HasProfile:
		return fail(errors.New("server: WithProfile is embedded-only"))
	}
	c.defaults = settings.Options()
	c.sess = c.srv.db.NewSession(c.defaults...)
	var e wire.Encoder
	e.Uvarint(wire.Version)
	e.String(c.srv.opts.Name)
	return c.writeFrame(wire.FrameWelcome, e.Bytes())
}

// admitSession enforces the per-session concurrent-statement cap; it
// rejects (rather than queues) so one connection cannot monopolize the
// server-wide queue.
func (c *conn) admitSession(qid uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight >= c.srv.opts.SessionConcurrent {
		c.writeErrorLocked(qid)
		return false
	}
	c.inflight++
	return true
}

// writeErrorLocked emits the session-admission error without re-taking
// c.mu (writeFrame has its own lock).
func (c *conn) writeErrorLocked(qid uint64) {
	limit := c.srv.opts.SessionConcurrent
	// prefdb:fire-and-forget best-effort error reply; writeFrame serializes on its own lock and conn teardown closes the socket under it
	go c.writeError(qid, fmt.Errorf("server: session statement limit reached (%d concurrent); wait for a statement to finish", limit))
}

// handleQuery starts one SQL statement.
func (c *conn) handleQuery(payload []byte) {
	d := wire.NewDecoder(payload)
	qid := d.Uvarint()
	kind := wire.StmtKind(d.Byte())
	sql := d.String()
	settings := d.Settings()
	if err := d.Err(); err != nil {
		c.writeError(qid, err)
		return
	}
	if settings.HasProfile {
		c.writeError(qid, errors.New("server: WithProfile is embedded-only"))
		return
	}
	if !c.admitSession(qid) {
		return
	}
	c.spawn(qid, func(ctx context.Context, opts []engine.QueryOption) (streamable, error) {
		switch kind {
		case wire.KindExec:
			res, err := c.sess.ExecContext(ctx, sql, opts...)
			if err == nil {
				c.flushCacheOnDDL(sql)
			}
			return resultStream{res}, err
		case wire.KindQuery:
			res, err := c.sess.QueryContext(ctx, sql, opts...)
			return resultStream{res}, err
		default:
			rows, err := c.sess.StreamContext(ctx, sql, opts...)
			return rowsStream{rows}, err
		}
	}, settings, sql)
}

// handleStmtRun starts one prepared-statement execution.
func (c *conn) handleStmtRun(payload []byte) {
	d := wire.NewDecoder(payload)
	qid := d.Uvarint()
	stmtID := d.Uvarint()
	kind := wire.StmtKind(d.Byte())
	settings := d.Settings()
	if err := d.Err(); err != nil {
		c.writeError(qid, err)
		return
	}
	c.mu.Lock()
	p, ok := c.stmts[stmtID]
	c.mu.Unlock()
	if !ok {
		c.writeError(qid, fmt.Errorf("server: unknown prepared statement %d", stmtID))
		return
	}
	if settings.HasProfile {
		c.writeError(qid, errors.New("server: WithProfile is embedded-only"))
		return
	}
	if !c.admitSession(qid) {
		return
	}
	c.spawn(qid, func(ctx context.Context, opts []engine.QueryOption) (streamable, error) {
		// The shared cache compiles without defaults, so the session layer
		// is re-applied here, preserving Open < session < per-run.
		merged := make([]engine.QueryOption, 0, len(c.defaults)+len(opts))
		merged = append(merged, c.defaults...)
		merged = append(merged, opts...)
		if kind == wire.KindStream {
			rows, err := p.StreamContext(ctx, merged...)
			return rowsStream{rows}, err
		}
		res, err := p.RunContext(ctx, merged...)
		return resultStream{res}, err
	}, settings, "<prepared>")
}

// handlePrepare compiles (or fetches from the shared cache) a statement
// and registers a session-local handle.
func (c *conn) handlePrepare(payload []byte) {
	d := wire.NewDecoder(payload)
	reqID := d.Uvarint()
	sql := d.String()
	if err := d.Err(); err != nil {
		c.writeError(reqID, err)
		return
	}
	p, err := c.srv.cache.get(c.srv.db, sql)
	if err != nil {
		c.writeError(reqID, err)
		return
	}
	c.mu.Lock()
	c.nextStmt++
	id := c.nextStmt
	c.stmts[id] = p
	c.mu.Unlock()
	var e wire.Encoder
	e.Uvarint(reqID)
	e.Uvarint(id)
	e.String(p.Plan())
	_ = c.writeFrame(wire.FramePrepared, e.Bytes())
}

// handleStmtClose drops a session-local prepared handle (the shared cache
// entry stays for other sessions; LRU bounds it).
func (c *conn) handleStmtClose(payload []byte) {
	d := wire.NewDecoder(payload)
	id := d.Uvarint()
	if d.Err() != nil {
		return
	}
	c.mu.Lock()
	delete(c.stmts, id)
	c.mu.Unlock()
}

// handleCancel cancels the statement's context; the engine's cooperative
// guards stop it and its stream fails with ErrCanceled.
func (c *conn) handleCancel(payload []byte) {
	d := wire.NewDecoder(payload)
	qid := d.Uvarint()
	if d.Err() != nil {
		return
	}
	c.mu.Lock()
	cancel, ok := c.running[qid]
	c.mu.Unlock()
	if ok {
		cancel()
	}
}

// flushCacheOnDDL flushes the shared statement cache after a successful
// DDL statement (schema changes can re-resolve plans); DML leaves the
// cache intact since plans reference tables by name.
func (c *conn) flushCacheOnDDL(sql string) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return
	}
	switch stmt.(type) {
	case *parser.CreateTableStmt, *parser.CreateIndexStmt:
		c.srv.cache.flush()
	}
}

// streamable abstracts the two result shapes a statement produces.
type streamable interface {
	// send writes the whole result (header, batches, end) to c for qid,
	// calling done just before the terminating End or Error frame.
	send(c *conn, qid uint64, done func()) error
}

// spawn runs one admitted statement in its own goroutine: server-wide
// admission, memory reservation, execution, result streaming, slow-query
// logging, and release of everything it took.
func (c *conn) spawn(qid uint64, run func(context.Context, []engine.QueryOption) (streamable, error), settings engine.Settings, label string) {
	ctx, cancel := context.WithCancel(context.Background())
	c.mu.Lock()
	c.running[qid] = cancel
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			cancel()
			c.mu.Lock()
			delete(c.running, qid)
			c.inflight--
			c.mu.Unlock()
		}()

		// Server-wide admission: queue for a statement slot, but stay
		// cancelable while queued.
		select {
		case c.srv.admit <- struct{}{}:
			defer func() { <-c.srv.admit }()
		case <-ctx.Done():
			c.writeError(qid, exec.WrapContextErr(ctx.Err()))
			return
		}

		// Cross-session memory accounting: reserve the statement's budget
		// from the shared pool and cap the statement at its reservation.
		// The reservation is returned before the statement's last frame
		// (End or Error) goes out, so a client that has read it never
		// sees the pool still charged; the deferred call covers failed
		// sends.
		opts := settings.Options()
		budget := settings.MemoryBudget
		release := func() {}
		if c.srv.opts.MemoryBudget > 0 {
			if !settings.HasMemoryBudget {
				budget = c.srv.opts.QueryMemory
				opts = append(opts, engine.WithMemoryBudget(budget))
			}
			if err := c.srv.mem.reserve(budget); err != nil {
				c.writeError(qid, err)
				return
			}
			var once sync.Once
			release = func() { once.Do(func() { c.srv.mem.release(budget) }) }
			defer release()
		}

		start := time.Now()
		result, err := run(ctx, opts)
		if err != nil {
			release()
			c.writeError(qid, err)
			return
		}
		if err := result.send(c, qid, release); err != nil {
			c.srv.log.Printf("conn %s: send qid %d: %v", c.nc.RemoteAddr(), qid, err)
			return
		}
		if d := time.Since(start); c.srv.opts.SlowQuery > 0 && d >= c.srv.opts.SlowQuery {
			c.srv.log.Printf("slow query (%.3fs, session %d stmts): %s",
				d.Seconds(), c.sess.Queries(), truncateSQL(label))
		}
	}()
}

// truncateSQL bounds log lines.
func truncateSQL(sql string) string {
	const max = 200
	if len(sql) <= max {
		return sql
	}
	return sql[:max] + "…"
}

// resultStream streams a materialized Result.
type resultStream struct {
	res *engine.Result
}

func (r resultStream) send(c *conn, qid uint64, done func()) error {
	var e wire.Encoder
	e.Uvarint(qid)
	if r.res.Rel != nil {
		e.Bool(true)
		e.Schema(r.res.Rel.Schema)
	} else {
		e.Bool(false)
	}
	e.String(r.res.Plan)
	e.String(r.res.Message)
	if err := c.writeFrame(wire.FrameHeader, e.Bytes()); err != nil {
		return err
	}
	if r.res.Rel != nil {
		rows := r.res.Rel.Rows
		for len(rows) > 0 {
			n := wire.BatchRows
			if n > len(rows) {
				n = len(rows)
			}
			if err := c.writeBatch(qid, rows[:n]); err != nil {
				return err
			}
			rows = rows[n:]
		}
	}
	done()
	return c.writeEnd(qid, r.res)
}

// rowsStream streams an engine row stream batch by batch — the server
// never materializes the result.
type rowsStream struct {
	rows engine.Rows
}

func (r rowsStream) send(c *conn, qid uint64, done func()) error {
	defer r.rows.Close()
	var e wire.Encoder
	e.Uvarint(qid)
	if sch := r.rows.Schema(); sch != nil {
		e.Bool(true)
		e.Schema(sch)
	} else {
		e.Bool(false)
	}
	e.String(r.rows.Plan())
	e.String(r.rows.Message())
	if err := c.writeFrame(wire.FrameHeader, e.Bytes()); err != nil {
		return err
	}
	batch := make([]prel.Row, 0, wire.BatchRows)
	for r.rows.Next() {
		row := r.rows.Row()
		// The engine reuses row storage across Next calls, so batching N
		// rows before framing requires copying each tuple out.
		tuple := append([]types.Value(nil), row.Tuple...)
		batch = append(batch, prel.Row{Tuple: tuple, SC: row.SC})
		if len(batch) == wire.BatchRows {
			if err := c.writeBatch(qid, batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := r.rows.Err(); err != nil {
		done()
		c.writeError(qid, err)
		return nil
	}
	if len(batch) > 0 {
		if err := c.writeBatch(qid, batch); err != nil {
			return err
		}
	}
	done()
	var end wire.Encoder
	end.Uvarint(qid)
	end.Stats(r.rows.Stats())
	return c.writeFrame(wire.FrameEnd, end.Bytes())
}

// writeBatch frames up to BatchRows result rows.
func (c *conn) writeBatch(qid uint64, rows []prel.Row) error {
	var e wire.Encoder
	e.Uvarint(qid)
	e.Uvarint(uint64(len(rows)))
	for _, r := range rows {
		e.Row(r)
	}
	return c.writeFrame(wire.FrameBatch, e.Bytes())
}

// writeEnd frames the terminating stats.
func (c *conn) writeEnd(qid uint64, res *engine.Result) error {
	var e wire.Encoder
	e.Uvarint(qid)
	e.Stats(res.Stats)
	return c.writeFrame(wire.FrameEnd, e.Bytes())
}
