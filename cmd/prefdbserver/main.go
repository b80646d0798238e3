// Command prefdbserver serves a prefdb database over TCP to any number of
// concurrent sessions.
//
// Usage:
//
//	prefdbserver -addr :7483 [-open snapshot] [-load imdb -scale 0.5]
//	             [-token secret] [-max-concurrent 16] [-session-concurrent 4]
//	             [-memory-budget 1073741824] [-query-memory 67108864]
//	             [-slow-query 500ms] [-stmt-cache 128]
//
// Connect with prefdb -connect host:port, or programmatically with
// prefdb.Dial. SIGINT/SIGTERM drain connections and exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"prefdb"
	"prefdb/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7483", "TCP listen address")
		token     = flag.String("token", "", "require this auth token from clients")
		open      = flag.String("open", "", "restore a database snapshot at startup")
		load      = flag.String("load", "", "preload a synthetic dataset: imdb or dblp")
		scale     = flag.Float64("scale", 0.1, "dataset scale factor")
		seed      = flag.Int64("seed", 42, "dataset generator seed")
		mode      = flag.String("mode", "gbu", "server default evaluation strategy")
		maxConc   = flag.Int("max-concurrent", 0, "server-wide concurrent statements (0 = 2×GOMAXPROCS)")
		sessConc  = flag.Int("session-concurrent", 4, "per-session concurrent statements")
		memBudget = flag.Int64("memory-budget", 0, "cross-session materialization memory pool in bytes (0 = unaccounted)")
		queryMem  = flag.Int64("query-memory", 64<<20, "default per-statement memory reservation in bytes")
		slow      = flag.Duration("slow-query", 0, "log statements slower than this (0 = off)")
		stmtCache = flag.Int("stmt-cache", 128, "shared prepared-statement cache entries")
	)
	flag.Parse()

	db := prefdb.Open()
	if *open != "" {
		f, err := os.Open(*open)
		if err != nil {
			fatal(err)
		}
		db, err = prefdb.Load(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("restored snapshot %s\n", *open)
	}
	m, err := prefdb.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	db.Mode = m

	switch strings.ToLower(*load) {
	case "":
	case "imdb":
		sizes, err := prefdb.LoadIMDB(db, prefdb.DatagenConfig{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded synthetic IMDB at scale %g: %d movies\n", *scale, sizes["movies"])
	case "dblp":
		sizes, err := prefdb.LoadDBLP(db, prefdb.DatagenConfig{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded synthetic DBLP at scale %g: %d publications\n", *scale, sizes["publications"])
	default:
		fatal(fmt.Errorf("unknown dataset %q (imdb, dblp)", *load))
	}

	srv := server.New(db, server.Options{
		Addr:              *addr,
		Token:             *token,
		MaxConcurrent:     *maxConc,
		SessionConcurrent: *sessConc,
		MemoryBudget:      *memBudget,
		QueryMemory:       *queryMem,
		SlowQuery:         *slow,
		StmtCacheSize:     *stmtCache,
		LogWriter:         os.Stderr,
	})
	if err := srv.Listen(); err != nil {
		fatal(err)
	}
	fmt.Printf("prefdbserver listening on %s (mode %s)\n", srv.Addr(), db.Mode)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	// prefdb:fire-and-forget signal watcher lives for the whole process; Serve returning is the join
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "prefdbserver: %v: draining connections...\n", s)
		srv.Close()
	}()

	if err := srv.Serve(); err != nil {
		fatal(err)
	}
	// Serve returned because Close ran; Close joins every connection
	// before returning, so a second call just waits for the drain.
	srv.Close()
	fmt.Println("prefdbserver: shut down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prefdbserver:", err)
	os.Exit(1)
}
