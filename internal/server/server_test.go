package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prefdb/internal/datagen"
	"prefdb/internal/engine"
	"prefdb/internal/exec"
	"prefdb/internal/profile"
	"prefdb/internal/wire"
)

// testDB builds the movie database used across the protocol tests.
func testDB(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.Open()
	sess := db.NewSession()
	defer sess.Close()
	stmts := []string{
		`CREATE TABLE movies (m_id INT, title TEXT, year INT, duration INT, d_id INT, PRIMARY KEY (m_id))`,
		`CREATE BTREE INDEX ON movies (year)`,
		`INSERT INTO movies VALUES
			(1, 'Gran Torino', 2008, 116, 1),
			(2, 'Wall Street', 1987, 126, 3),
			(3, 'Million Dollar Baby', 2004, 132, 1),
			(4, 'Match Point', 2005, 124, 2),
			(5, 'Scoop', 2006, 96, 2)`,
	}
	for _, s := range stmts {
		if _, err := sess.ExecContext(context.Background(), s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

// bigDB loads a synthetic dataset large enough that preference queries
// take real time (for cancellation and admission tests).
func bigDB(t testing.TB) *engine.DB {
	t.Helper()
	db := engine.Open()
	if _, err := datagen.LoadIMDB(db.Catalog(), datagen.Config{Scale: 0.3, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer spins up a server on an ephemeral port and tears it down
// with the test.
func startServer(t testing.TB, db *engine.DB, opts Options) (*Server, string) {
	t.Helper()
	srv := New(db, opts)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, srv.Addr().String()
}

const protoQuery = `
	SELECT title, year FROM movies
	PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
	RANK BY score`

// sameResult asserts two results are byte-identical: columns, rows
// (values and the exact float bits of every score/confidence), stats,
// plan and message.
func sameResult(t *testing.T, got, want *engine.Result) {
	t.Helper()
	if (got.Rel == nil) != (want.Rel == nil) {
		t.Fatalf("relation presence: got %v, want %v", got.Rel != nil, want.Rel != nil)
	}
	if got.Plan != want.Plan {
		t.Fatalf("plan:\n  got  %s\n  want %s", got.Plan, want.Plan)
	}
	if got.Message != want.Message {
		t.Fatalf("message: got %q, want %q", got.Message, want.Message)
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats:\n  got  %+v\n  want %+v", got.Stats, want.Stats)
	}
	if got.Rel == nil {
		return
	}
	if fmt.Sprint(got.Columns()) != fmt.Sprint(want.Columns()) {
		t.Fatalf("columns: got %v, want %v", got.Columns(), want.Columns())
	}
	sameRows(t, got, want)
}

// sameRows asserts two results hold the same rows in the same order, with
// the exact float bits of every score and confidence.
func sameRows(t *testing.T, got, want *engine.Result) {
	t.Helper()
	if got.Rel.Len() != want.Rel.Len() {
		t.Fatalf("rows: got %d, want %d", got.Rel.Len(), want.Rel.Len())
	}
	for i := range want.Rel.Rows {
		g, w := got.Rel.Rows[i], want.Rel.Rows[i]
		for j := range w.Tuple {
			if !g.Tuple[j].Equal(w.Tuple[j]) || g.Tuple[j].Kind() != w.Tuple[j].Kind() {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, g.Tuple[j], w.Tuple[j])
			}
		}
		if g.SC.IsBottom() != w.SC.IsBottom() ||
			math.Float64bits(g.SC.Score) != math.Float64bits(w.SC.Score) ||
			math.Float64bits(g.SC.Conf) != math.Float64bits(w.SC.Conf) {
			t.Fatalf("row %d SC: got %+v, want %+v", i, g.SC, w.SC)
		}
	}
}

// TestWireMatchesEmbedded is the redesign's core acceptance check: for
// every evaluation strategy, results served over the wire are
// byte-identical to the embedded QueryContext. The workers arms pass the
// deprecated no-op WithWorkers on both sides and pin that it neither
// travels nor changes a result; they go with the shim.
func TestWireMatchesEmbedded(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	modes := []engine.Mode{engine.ModeNative, engine.ModeBU, engine.ModeGBU, engine.ModeFtP}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", mode, workers), func(t *testing.T) {
				opts := []engine.QueryOption{engine.WithMode(mode), engine.WithWorkers(workers)}
				sess := db.NewSession()
				want, err := sess.QueryContext(context.Background(), protoQuery, opts...)
				sess.Close()
				if err != nil {
					t.Fatal(err)
				}
				c, err := wire.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				got, err := c.QueryContext(context.Background(), protoQuery, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, got, want)
				// The streaming entry point must agree too.
				streamed, err := c.ExecContext(context.Background(), protoQuery, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, streamed, want)
			})
		}
	}
	// Scans of a columnar table fill the columnar counters (ColBatches,
	// RowsMaterialized); they must cross the wire like every other one,
	// and the rows must match the same data scanned on the heap.
	t.Run("colstore=on", func(t *testing.T) {
		const q = `SELECT title, year FROM movies WHERE m_id <= 500
			PREFERRING year >= 2000 SCORE recency(year, 2011) CONF 0.9 ON movies
			TOP 10 BY score`
		embedded := func(db *engine.DB) *engine.Result {
			sess := db.NewSession()
			defer sess.Close()
			res, err := sess.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		heap := embedded(bigDB(t))
		if heap.Stats.SegmentsScanned != 0 {
			t.Fatalf("heap arm read segments: %+v", heap.Stats)
		}
		big := bigDB(t)
		movies, err := big.Catalog().Table("movies")
		if err != nil {
			t.Fatal(err)
		}
		movies.ColStore()
		_, bigAddr := startServer(t, big, Options{})
		want := embedded(big)
		if want.Stats.SegmentsScanned == 0 || want.Stats.ColBatches == 0 || want.Stats.RowsMaterialized == 0 {
			t.Fatalf("query never reached the columnar path: %+v", want.Stats)
		}
		sameRows(t, want, heap)
		c, err := wire.Dial(bigAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := c.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, got, want)
	})
}

// TestUnknownSettingRejected drives the protocol with hand-written frames
// whose settings this build does not define — mode 200, and the reserved
// mask bits 9 (the retired colstore mode), 1 (the retired worker count),
// 7 (the retired batch mode) and 6 (the retired score-cache mode). Each statement must fail with an error frame naming the setting,
// and the connection must go on serving.
func TestUnknownSettingRejected(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	nc := dialRaw(t, addr)
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	send := func(qid uint64, settings func(e *wire.Encoder)) {
		var e wire.Encoder
		e.Uvarint(qid)
		e.Byte(byte(wire.KindQuery))
		e.String(protoQuery)
		settings(&e)
		if err := wire.WriteFrame(nc, wire.FrameQuery, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	bad := []func(e *wire.Encoder){
		func(e *wire.Encoder) { e.Settings(engine.Settings{HasMode: true, Mode: 200}) },
		func(e *wire.Encoder) { e.Uvarint(1 << 9); e.Uvarint(1) }, // colstore "on" as an older build sent it
		func(e *wire.Encoder) { e.Uvarint(1 << 1); e.Varint(4) },  // four workers as an older build sent it
		func(e *wire.Encoder) { e.Uvarint(1 << 7); e.Uvarint(1) }, // batch mode "off" as an older build sent it
		func(e *wire.Encoder) { e.Uvarint(1 << 6); e.Uvarint(1) }, // score-cache mode "off" as an older build sent it
	}
	for i, settings := range bad {
		qid := uint64(i + 1)
		send(qid, settings)
		ft, payload, err := wire.ReadFrame(nc)
		if err != nil || ft != wire.FrameError {
			t.Fatalf("qid %d: frame %#x, err %v; want an error frame", qid, byte(ft), err)
		}
		d := wire.NewDecoder(payload)
		if got := d.Uvarint(); got != qid {
			t.Fatalf("error frame for qid %d, want %d", got, qid)
		}
		if ferr := d.Error(); ferr == nil || !strings.Contains(ferr.Error(), wire.ErrUnknownSetting.Error()) {
			t.Fatalf("qid %d: error %v, want %q", qid, ferr, wire.ErrUnknownSetting)
		}
	}
	// A well-formed statement on the same connection still runs to End.
	next := uint64(len(bad) + 1)
	send(next, func(e *wire.Encoder) { e.Settings(engine.CollectSettings(engine.WithMode(engine.ModeFtP))) })
	for {
		ft, payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatalf("waiting for qid %d: %v", next, err)
		}
		if ft == wire.FrameError {
			d := wire.NewDecoder(payload)
			qid := d.Uvarint()
			t.Fatalf("qid %d failed: %v", qid, d.Error())
		}
		if ft == wire.FrameEnd {
			break
		}
	}
}

// TestWireSessionDefaults checks the precedence chain spans the network:
// dial-time session defaults apply, per-query options override them.
func TestWireSessionDefaults(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	c, err := wire.Dial(addr, wire.WithSessionDefaults(engine.WithMaxRows(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Session default trips the row guard...
	_, err = c.QueryContext(context.Background(), protoQuery)
	var ge *exec.GuardError
	if !errors.As(err, &ge) || ge.Limit != exec.LimitRows {
		t.Fatalf("session default did not apply remotely: %v", err)
	}
	if !errors.Is(err, exec.ErrResourceExhausted) {
		t.Fatalf("guard error lost its sentinel across the wire: %v", err)
	}
	// ...and the per-query option overrides it.
	if _, err := c.QueryContext(context.Background(), protoQuery, engine.WithMaxRows(1_000_000)); err != nil {
		t.Fatalf("per-query override did not win: %v", err)
	}
}

// TestWireExecDDL checks DDL/DML over the wire: messages travel, effects
// are visible to subsequent statements.
func TestWireExecDDL(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.ExecContext(context.Background(), `CREATE TABLE notes (id INT, body TEXT, PRIMARY KEY (id))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rel != nil || res.Message == "" {
		t.Fatalf("DDL result: rel=%v message=%q", res.Rel, res.Message)
	}
	if _, err := c.ExecContext(context.Background(), `INSERT INTO notes VALUES (1, 'a'), (2, 'b')`); err != nil {
		t.Fatal(err)
	}
	got, err := c.QueryContext(context.Background(), `SELECT id FROM notes`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rel.Len() != 2 {
		t.Fatalf("insert not visible: %d rows", got.Rel.Len())
	}
	// QueryContext must keep rejecting DDL, exactly as embedded.
	if _, err := c.QueryContext(context.Background(), `CREATE TABLE t2 (id INT, PRIMARY KEY (id))`); err == nil {
		t.Fatal("QueryContext accepted DDL over the wire")
	}
}

// TestWireStream checks the streaming entry point end to end, including
// stats parity with the materialized path after a full drain.
func TestWireStream(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want, err := c.QueryContext(context.Background(), protoQuery, engine.WithMode(engine.ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.StreamContext(context.Background(), protoQuery, engine.WithMode(engine.ModeNative))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		row := rows.Row()
		wantRow := want.Rel.Rows[n]
		for j := range wantRow.Tuple {
			if !row.Tuple[j].Equal(wantRow.Tuple[j]) {
				t.Fatalf("stream row %d col %d: got %v, want %v", n, j, row.Tuple[j], wantRow.Tuple[j])
			}
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != want.Rel.Len() {
		t.Fatalf("streamed %d rows, want %d", n, want.Rel.Len())
	}
	if rows.Stats() != want.Stats {
		t.Fatalf("stream stats diverge:\n  stream %+v\n  query  %+v", rows.Stats(), want.Stats)
	}
	// Early close mid-stream leaves the connection usable.
	rows, err = c.StreamContext(context.Background(), protoQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if err := rows.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	if _, err := c.QueryContext(context.Background(), protoQuery); err != nil {
		t.Fatalf("statement after early close: %v", err)
	}
}

// TestWirePrepared checks the prepared-statement exchange and that the
// shared cache deduplicates compilation across connections.
func TestWirePrepared(t *testing.T) {
	db := testDB(t)
	srv, addr := startServer(t, db, Options{})
	c1, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	p1, err := c1.Prepare(protoQuery)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c2.Prepare(protoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Plan() == "" || p1.Plan() != p2.Plan() {
		t.Fatalf("prepared plans diverge:\n%s\nvs\n%s", p1.Plan(), p2.Plan())
	}
	entries, hits, misses := srv.StmtCacheStats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Fatalf("cache stats after two prepares of one SQL: entries=%d hits=%d misses=%d", entries, hits, misses)
	}

	want, err := c1.QueryContext(context.Background(), protoQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	// A closed handle is rejected; the other connection's handle survives.
	if _, err := p1.RunContext(context.Background()); err == nil || !strings.Contains(err.Error(), "unknown prepared statement") {
		t.Fatalf("closed statement ran: %v", err)
	}
	if _, err := p2.RunContext(context.Background()); err != nil {
		t.Fatalf("sibling handle died with the closed one: %v", err)
	}

	// DDL flushes the shared cache.
	if _, err := c1.ExecContext(context.Background(), `CREATE TABLE flushme (id INT, PRIMARY KEY (id))`); err != nil {
		t.Fatal(err)
	}
	if entries, _, _ := srv.StmtCacheStats(); entries != 0 {
		t.Fatalf("cache not flushed on DDL: %d entries", entries)
	}
}

// TestWireAuth checks token authentication.
func TestWireAuth(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{Token: "s3cret"})
	if _, err := wire.Dial(addr); err == nil || !strings.Contains(err.Error(), "authentication") {
		t.Fatalf("tokenless dial: %v", err)
	}
	if _, err := wire.Dial(addr, wire.WithToken("wrong")); err == nil {
		t.Fatal("wrong token accepted")
	}
	c, err := wire.Dial(addr, wire.WithToken("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestWireProfileRejected checks WithProfile cannot travel: the binding
// references a live in-process store.
func TestWireProfileRejected(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	store := profile.NewStore()
	if _, err := c.QueryContext(context.Background(), protoQuery, engine.WithProfile(store, "u")); err == nil {
		t.Fatal("per-query WithProfile accepted remotely")
	}
	if _, err := wire.Dial(addr, wire.WithSessionDefaults(engine.WithProfile(store, "u"))); err == nil {
		t.Fatal("session-default WithProfile accepted remotely")
	}
}

// TestMemoryPoolExhaustion checks cross-session admission: a statement
// whose reservation does not fit the shared pool is rejected with a
// retryable error, and the pool drains back to zero.
func TestMemoryPoolExhaustion(t *testing.T) {
	db := testDB(t)
	srv, addr := startServer(t, db, Options{MemoryBudget: 1 << 20, QueryMemory: 64 << 20})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.QueryContext(context.Background(), protoQuery); err == nil || !strings.Contains(err.Error(), "memory pool exhausted") {
		t.Fatalf("oversized default reservation admitted: %v", err)
	}
	// An explicit budget that fits is admitted and enforced.
	if _, err := c.QueryContext(context.Background(), protoQuery, engine.WithMemoryBudget(512<<10)); err != nil {
		t.Fatalf("fitting reservation rejected: %v", err)
	}
	if got := srv.mem.reserved(); got != 0 {
		t.Fatalf("pool did not drain: %d bytes still reserved", got)
	}
}

// dialRaw opens a connection and completes the handshake by hand, for
// tests that must write frames the Client would never send; the
// connection closes with the test.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	var hello wire.Encoder
	hello.String(wire.Magic)
	hello.Uvarint(wire.Version)
	hello.String("")
	hello.Settings(engine.Settings{})
	if err := wire.WriteFrame(nc, wire.FrameHello, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := wire.ReadFrame(nc); err != nil || ft != wire.FrameWelcome {
		t.Fatalf("handshake: frame %#x, err %v", byte(ft), err)
	}
	return nc
}

// TestSessionAdmission drives the protocol with raw frames (the Client
// serializes statements, so only a hand-rolled client can overcommit a
// session) and checks the per-session cap rejects rather than queues.
func TestSessionAdmission(t *testing.T) {
	db := bigDB(t)
	_, addr := startServer(t, db, Options{SessionConcurrent: 1})
	nc := dialRaw(t, addr)
	slow := `SELECT title FROM movies PREFERRING year >= 1990 SCORE recency(year, 2011) CONF 0.9 ON movies RANK BY score`
	sendQuery := func(qid uint64) {
		var e wire.Encoder
		e.Uvarint(qid)
		e.Byte(byte(wire.KindQuery))
		e.String(slow)
		e.Settings(engine.CollectSettings(engine.WithMode(engine.ModeBU)))
		if err := wire.WriteFrame(nc, wire.FrameQuery, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	sendQuery(1)
	sendQuery(2) // must be rejected: qid 1 occupies the only session slot
	deadline := time.Now().Add(30 * time.Second)
	nc.SetReadDeadline(deadline)
	var sawReject bool
	for !sawReject {
		ft, payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatalf("waiting for rejection: %v", err)
		}
		if ft != wire.FrameError {
			continue // qid 1's result stream
		}
		d := wire.NewDecoder(payload)
		qid := d.Uvarint()
		ferr := d.Error()
		if qid != 2 {
			t.Fatalf("unexpected error for qid %d: %v", qid, ferr)
		}
		if !strings.Contains(ferr.Error(), "session statement limit") {
			t.Fatalf("rejection error: %v", ferr)
		}
		sawReject = true
	}
}

// TestMidQueryCancelNoLeak is the lifecycle acceptance check: clients
// cancel statements mid-stream, disconnect, and the server winds down
// with no goroutine left behind. Run under -race in CI.
func TestMidQueryCancelNoLeak(t *testing.T) {
	db := bigDB(t)
	base := runtime.NumGoroutine()
	srv := New(db, Options{})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	addr := srv.Addr().String()

	slow := `SELECT title, year FROM movies PREFERRING year >= 1950 SCORE recency(year, 2011) CONF 0.9 ON movies RANK BY score`
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mode := []engine.Mode{engine.ModeNative, engine.ModeBU, engine.ModeGBU}[i%3]
			rows, err := c.StreamContext(ctx, slow, engine.WithMode(mode))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			// Pull a few rows, then cancel mid-stream.
			for n := 0; n < 3 && rows.Next(); n++ {
			}
			cancel()
			for rows.Next() {
			}
			if err := rows.Err(); err != nil && !errors.Is(err, exec.ErrCanceled) {
				t.Errorf("client %d: stream failed with %v, want ErrCanceled or clean end", i, err)
			}
			rows.Close()
		}(i)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count returns to the
// pre-test baseline (small slack for runtime helpers).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestConcurrentClients hammers one server from many connections mixing
// queries, streams and prepared runs; race-clean under -race.
func TestConcurrentClients(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := []engine.Mode{engine.ModeNative, engine.ModeBU, engine.ModeGBU, engine.ModeFtP}[i%4]
			c, err := wire.Dial(addr, wire.WithSessionDefaults(engine.WithMode(mode)))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for n := 0; n < 5; n++ {
				switch n % 3 {
				case 0:
					if _, err := c.QueryContext(context.Background(), protoQuery); err != nil {
						t.Errorf("client %d query: %v", i, err)
						return
					}
				case 1:
					rows, err := c.StreamContext(context.Background(), protoQuery)
					if err != nil {
						t.Errorf("client %d stream: %v", i, err)
						return
					}
					for rows.Next() {
					}
					if err := rows.Close(); err != nil {
						t.Errorf("client %d close: %v", i, err)
						return
					}
				default:
					p, err := c.Prepare(protoQuery)
					if err != nil {
						t.Errorf("client %d prepare: %v", i, err)
						return
					}
					if _, err := p.RunContext(context.Background()); err != nil {
						t.Errorf("client %d run: %v", i, err)
						return
					}
					p.Close()
				}
			}
		}(i)
	}
	wg.Wait()
}
