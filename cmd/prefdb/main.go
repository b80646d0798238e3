// Command prefdb is an interactive shell / one-shot runner for the
// preference-aware database engine.
//
// Usage:
//
//	prefdb [-load imdb|dblp] [-scale 0.1] [-mode gbu] [-timeout 5s] [-explain] [-q "SELECT ..."] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	prefdb -connect host:port [-token t] [-mode gbu] [-q "SELECT ..."]
//
// Without -q it reads statements from stdin, terminated by ';'.
// SIGINT/SIGTERM cancel the active statement (printing its partial
// execution stats) instead of killing the process mid-materialization;
// exit the shell with Ctrl-D or \quit.
//
// With -connect, statements run on a prefdbserver instead of an embedded
// database: a -mode flag the user sets becomes the remote session's
// default (left unset, the server's default stays in force) and
// everything else — results, options, cancel
// behavior — works identically (the shell talks to the same Session
// interface either way). Dataset and snapshot flags (-load, -open, -save)
// are embedded-only.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"prefdb"
)

// runConfig carries the per-statement execution settings.
type runConfig struct {
	explain  bool
	maxRows  int
	timeout  time.Duration
	rowLimit int
	sigc     chan os.Signal
}

func main() {
	var (
		load     = flag.String("load", "", "preload a synthetic dataset: imdb or dblp")
		scale    = flag.Float64("scale", 0.1, "dataset scale factor (1.0 ≈ 20k movies)")
		seed     = flag.Int64("seed", 42, "dataset generator seed")
		mode     = flag.String("mode", "gbu", "evaluation strategy: native, bu, gbu, ftp, plugin-naive, plugin-merged")
		timeout  = flag.Duration("timeout", 0, "per-statement wall-clock deadline (0 = none)")
		rowLimit = flag.Int("max-rows", 0, "per-statement materialized-row budget (0 = unlimited)")
		explain  = flag.Bool("explain", false, "print the optimized plan and execution stats")
		query    = flag.String("q", "", "execute one statement and exit")
		maxRows  = flag.Int("rows", 25, "maximum rows to display")
		open     = flag.String("open", "", "restore a database snapshot before running")
		save     = flag.String("save", "", "write a database snapshot on exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		connect  = flag.String("connect", "", "run statements on a prefdbserver at host:port instead of embedded")
		token    = flag.String("token", "", "auth token for -connect")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prefdb:", err)
				return
			}
			runtime.GC() // settle allocations so the heap profile reflects live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "prefdb:", err)
			}
			f.Close()
		}()
	}

	// SIGINT/SIGTERM cancel the active statement's context; the shell
	// survives and prints the partial stats (see runStatement).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	cfg := runConfig{explain: *explain, maxRows: *maxRows, timeout: *timeout, rowLimit: *rowLimit, sigc: sigc}

	if *connect != "" {
		if *load != "" || *open != "" || *save != "" {
			fatal(errors.New("-load/-open/-save are embedded-only; the server owns its data"))
		}
		defaults, err := sessionDefaults(flag.CommandLine)
		if err != nil {
			fatal(err)
		}
		sess, err := prefdb.Dial(*connect, prefdb.WithToken(*token), prefdb.WithSessionDefaults(defaults...))
		if err != nil {
			fatal(err)
		}
		defer sess.Close()
		if *query != "" {
			if err := runStatement(sess, *query, cfg); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("prefdb shell — connected to %s; terminate statements with ';', Ctrl-D to exit\n", *connect)
		shell(nil, sess, cfg)
		return
	}

	m, err := prefdb.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	openOpts := []prefdb.OpenOption{prefdb.WithDefaultMode(m)}
	db := prefdb.Open(openOpts...)
	if *open != "" {
		f, err := os.Open(*open)
		if err != nil {
			fatal(err)
		}
		db, err = prefdb.Load(f, openOpts...)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("restored snapshot %s\n", *open)
	}
	defer func() {
		if *save == "" {
			return
		}
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := db.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("saved snapshot %s\n", *save)
	}()
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

	sess := prefdb.NewSession(db)
	defer sess.Close()
	if *query != "" {
		if err := runStatement(sess, *query, cfg); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println("prefdb shell — terminate statements with ';', \\help for meta-commands, Ctrl-D to exit")
	shell(db, sess, cfg)
}

// sessionDefaults turns the -mode flag, if the user actually set it on
// fs, into a session default option for a remote connection; a flag left
// at its default sends nothing, so the server's own default holds.
func sessionDefaults(fs *flag.FlagSet) ([]prefdb.QueryOption, error) {
	set := map[string]string{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	var opts []prefdb.QueryOption
	if name, ok := set["mode"]; ok {
		m, err := prefdb.ParseMode(name)
		if err != nil {
			return nil, err
		}
		opts = append(opts, prefdb.WithMode(m))
	}
	return opts, nil
}

// shell reads statements from stdin until EOF; db is nil when connected
// to a server (meta-commands needing catalog access are embedded-only).
func shell(db *prefdb.DB, sess prefdb.Session, cfg runConfig) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt(buf.Len() > 0)
	for scanner.Scan() {
		line := scanner.Text()
		if buf.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), "\\") {
			if quit := metaCommand(db, strings.TrimSpace(line)); quit {
				return
			}
			prompt(false)
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := strings.TrimSpace(buf.String())
			buf.Reset()
			if stmt != ";" && stmt != "" {
				if err := runStatement(sess, stmt, cfg); err != nil {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
			}
		}
		prompt(buf.Len() > 0)
	}
}

// metaCommand handles backslash commands; it reports whether to quit.
// db is nil in connected mode, where catalog-backed commands are
// unavailable.
func metaCommand(db *prefdb.DB, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		return true
	}
	if db == nil {
		fmt.Fprintf(os.Stderr, "meta-command %s is embedded-only (connected to a server)\n", fields[0])
		return false
	}
	switch fields[0] {
	case "\\help", "\\h":
		fmt.Println(`meta-commands:
  \tables            list tables with row counts
  \schema <table>    show a table's columns, key and indexes
  \mode [name]       show or set the evaluation strategy
  \quit              exit`)
	case "\\tables":
		cat := db.Catalog()
		for _, name := range cat.Tables() {
			t, err := cat.Table(name)
			if err != nil {
				continue
			}
			fmt.Printf("  %-16s %d rows\n", name, t.Len())
		}
	case "\\schema":
		if len(fields) < 2 {
			fmt.Fprintln(os.Stderr, "usage: \\schema <table>")
			break
		}
		t, err := db.Catalog().Table(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			break
		}
		s := t.Schema()
		for i, c := range s.Columns {
			keyMark := ""
			for _, k := range s.Key {
				if k == i {
					keyMark = "  PRIMARY KEY"
				}
			}
			fmt.Printf("  %-16s %s%s\n", c.Name, c.Kind, keyMark)
		}
		if cols := t.HashIndexColumns(); len(cols) > 0 {
			fmt.Printf("  hash indexes: %s\n", strings.Join(cols, ", "))
		}
		if cols := t.BTreeIndexColumns(); len(cols) > 0 {
			fmt.Printf("  btree indexes: %s\n", strings.Join(cols, ", "))
		}
	case "\\mode":
		if len(fields) < 2 {
			fmt.Println("mode:", db.Mode)
			break
		}
		m, err := prefdb.ParseMode(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			break
		}
		db.Mode = m
		fmt.Println("mode:", db.Mode)
	default:
		fmt.Fprintf(os.Stderr, "unknown meta-command %s (try \\help)\n", fields[0])
	}
	return false
}

func prompt(continuation bool) {
	if continuation {
		fmt.Print("   ...> ")
	} else {
		fmt.Print("prefdb> ")
	}
}

func runStatement(sess prefdb.Session, sql string, cfg runConfig) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Discard signals delivered between statements so a stale Ctrl-C does
	// not kill the next query the moment it starts.
	select {
	case <-cfg.sigc:
	default:
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case s := <-cfg.sigc:
			fmt.Fprintf(os.Stderr, "\ninterrupt (%v): canceling statement...\n", s)
			cancel()
		case <-done:
		}
	}()

	opts := []prefdb.QueryOption{}
	if cfg.timeout > 0 {
		opts = append(opts, prefdb.WithTimeout(cfg.timeout))
	}
	if cfg.rowLimit > 0 {
		opts = append(opts, prefdb.WithMaxRows(cfg.rowLimit))
	}
	res, err := sess.ExecContext(ctx, sql, opts...)
	if err != nil {
		var ge *prefdb.GuardError
		if errors.As(err, &ge) {
			fmt.Fprintf(os.Stderr, "statement aborted: %v\n", ge)
			fmt.Fprintf(os.Stderr, "partial stats: %v\n", ge.Stats)
			return nil
		}
		return err
	}
	if res.Message != "" {
		fmt.Println(res.Message)
		return nil
	}
	printRelation(res, cfg.maxRows)
	if cfg.explain {
		fmt.Println("-- plan:")
		fmt.Print(indent(res.Plan, "--   "))
		fmt.Printf("-- stats: %v\n", res.Stats)
	}
	return nil
}

func printRelation(res *prefdb.Result, maxRows int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(res.Columns(), "\t"))
	for i, row := range res.Rel.Rows {
		if i == maxRows {
			break
		}
		cells := make([]string, 0, len(row.Tuple)+2)
		for _, v := range row.Tuple {
			cells = append(cells, v.String())
		}
		if row.SC.Known {
			cells = append(cells, fmt.Sprintf("%.3f", row.SC.Score), fmt.Sprintf("%.3f", row.SC.Conf))
		} else {
			cells = append(cells, "⊥", "0")
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()
	if res.Rel.Len() > maxRows {
		fmt.Printf("... (%d rows total)\n", res.Rel.Len())
	} else {
		fmt.Printf("(%d rows)\n", res.Rel.Len())
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prefdb:", err)
	os.Exit(1)
}
