// Package server is prefdb's multi-session query server: a TCP listener
// speaking the wire protocol, one engine session per connection, with
// per-session and cross-session admission control.
//
// Architecture (one connection):
//
//	reader goroutine ── frames ──▶ statement goroutines ── results ──▶ serialized writer
//	        │                            ▲
//	        └── FrameCancel ── cancels ──┘
//
// The reader never executes statements, so a FrameCancel arriving while a
// query streams results is seen immediately and cancels the statement's
// context — the engine's cooperative guards stop the query and the stream
// fails with ErrCanceled, exactly as an embedded context cancellation.
//
// Admission control bounds what a process-wide population of sessions can
// do to the shared engine:
//
//   - a server-wide concurrent-statement cap (queuing, FIFO-ish),
//   - a per-session concurrent-statement cap (rejecting, so one
//     connection cannot monopolize the server queue),
//   - cross-session memory accounting: every admitted statement reserves
//     its memory budget against a shared pool and is capped at its
//     reservation by the engine's per-query memory guard, so the pool
//     bounds total materialized bytes across all sessions,
//   - a slow-query log for statements exceeding a latency threshold.
//
// Prepared statements are compiled once per SQL text in a cross-session
// LRU cache and flushed on DDL (plans reference tables by name and every
// run reads the tables as they are, so DML needs no flush).
package server

import (
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"prefdb/internal/engine"
)

// Options configures a Server. The zero value listens on an ephemeral
// localhost port with no auth, concurrency derived from GOMAXPROCS and no
// memory pool.
type Options struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// Token, when non-empty, must be presented by every client handshake.
	Token string
	// Name identifies the server in Welcome frames (default "prefdb").
	Name string
	// MaxConcurrent caps concurrently executing statements server-wide;
	// excess statements queue. Default 2 × GOMAXPROCS.
	MaxConcurrent int
	// SessionConcurrent caps concurrently executing statements per
	// session; excess statements are rejected (not queued), so one
	// connection cannot monopolize the server queue. Default 4.
	SessionConcurrent int
	// MemoryBudget is the shared pool of estimated materialization bytes
	// across all sessions (0 = unaccounted). Every admitted statement
	// reserves its per-query budget from the pool.
	MemoryBudget int64
	// QueryMemory is the per-statement budget reserved (and enforced via
	// the engine's memory guard) when the client sets none. Only used when
	// MemoryBudget is set. Default 64 MiB.
	QueryMemory int64
	// SlowQuery logs statements slower than this threshold (0 = off).
	SlowQuery time.Duration
	// StmtCacheSize bounds the cross-session prepared-statement cache
	// (default 128 entries).
	StmtCacheSize int
	// LogWriter receives the slow-query and connection logs (default
	// discards).
	LogWriter io.Writer
}

// Server serves a DB over the wire protocol. Create with New, start with
// Listen + Serve (or ListenAndServe), stop with Close.
type Server struct {
	db   *engine.DB
	opts Options
	log  *log.Logger

	admit chan struct{} // server-wide statement slots
	mem   *accountant
	cache *stmtCache

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[*conn]struct{} // prefdb:guarded-by mu
	closed bool               // prefdb:guarded-by mu
}

// New builds a server for db; nothing listens until Listen.
func New(db *engine.DB, opts Options) *Server {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Name == "" {
		opts.Name = "prefdb"
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if opts.SessionConcurrent <= 0 {
		opts.SessionConcurrent = 4
	}
	if opts.QueryMemory <= 0 {
		opts.QueryMemory = 64 << 20
	}
	if opts.StmtCacheSize <= 0 {
		opts.StmtCacheSize = 128
	}
	if opts.LogWriter == nil {
		opts.LogWriter = io.Discard
	}
	return &Server{
		db:    db,
		opts:  opts,
		log:   log.New(opts.LogWriter, "prefdbserver: ", log.LstdFlags|log.Lmicroseconds),
		admit: make(chan struct{}, opts.MaxConcurrent),
		mem:   newAccountant(opts.MemoryBudget),
		cache: newStmtCache(opts.StmtCacheSize),
		conns: map[*conn]struct{}{},
	}
}

// Listen binds the TCP listener; Addr reports the bound address (useful
// with the default ephemeral port).
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until the listener closes. It returns nil
// after Close, or the accept error otherwise.
func (s *Server) Serve() error {
	if s.ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, closes every connection, and waits for all
// connection and statement goroutines to finish — after Close returns, no
// server goroutine is left running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return err
}

// StmtCacheStats reports the shared prepared-statement cache counters
// (entries, hits, misses) for monitoring and tests.
func (s *Server) StmtCacheStats() (entries, hits, misses int) {
	return s.cache.stats()
}
