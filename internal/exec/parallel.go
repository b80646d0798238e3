// Parallel execution of the two operators whose inputs arrive already
// drained: the extended hash join (partitioned build, morsel-parallel
// probe) and top-k selection (per-worker bounded heaps). σ/λ chains are
// not fanned out — they run in the one fused kernel over their storage
// form's own source (see buildBatchSegment), where zone maps, direct
// column kernels and late materialization apply. Three invariants keep
// the parallel operators indistinguishable from the sequential ones:
//
//  1. Determinism: probe morsels are merged in morsel-index order, the
//     hash-join build partitions insert rows in global row order, and the
//     parallel top-k breaks ranking ties by input position, so output rows
//     and their order do not depend on scheduling.
//  2. Exact stats: each probe worker accumulates a private Stats that is
//     merged once when the probe ends, so counters stay exact without
//     per-row atomics. (The diagnostic Batches / JoinProbeBatches counters
//     reflect block sizing and are excluded from the worker-count
//     identity.)
//  3. Shared read-only state: the partition tables are complete before
//     any probe worker reads them, and compiled expressions are immutable.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"prefdb/internal/expr"
	"prefdb/internal/prel"
)

// morselSize is the number of rows per scheduling unit. Small enough that
// a skewed probe still load-balances, large enough that the per-morsel
// goroutine handoff is amortized over hundreds of rows. Inputs of at most
// one morsel stay on the sequential path.
const morselSize = 512

// workerCount resolves the configured pool width: Workers if positive,
// GOMAXPROCS otherwise.
func (e *Executor) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelOK reports whether the current pipeline may fan out. Under a
// Limit the consumer can stop pulling early, so an eager parallel join
// would inflate the work (and Stats) relative to the lazy sequential
// probe; blocking operators below a Limit re-enable parallelism because
// they exhaust their inputs regardless (drain resets the depth).
func (e *Executor) parallelOK() bool {
	return e.workerCount() > 1 && e.limitDepth == 0
}

// workerStats pads each worker's counters to a cache line so per-row
// increments on neighbouring workers do not false-share.
type workerStats struct {
	Stats
	_ [64]byte
}

// fanOutMorsels splits the index space [0, n) into morselSize chunks and
// fans them out over the worker pool. Workers claim morsel indices from a
// shared counter (work stealing over a global queue); apply sees the
// global [lo, hi) range, so callers can address per-row side arrays — the
// hash-join probe's precomputed key hashes — by global offset. Results
// land in a per-morsel slot and are concatenated in morsel order, so the
// output order is that of the input. Worker-local stats are merged once at
// the end.
//
// Cancellation: each worker re-checks the lifecycle guard before claiming
// a morsel and stops claiming once the query tripped, so the pool drains
// within one morsel of a cancellation; wg.Wait always joins every worker,
// so no goroutine outlives the call.
func (e *Executor) fanOutMorsels(n int, apply func(lo, hi int, stats *Stats) []prel.Row) []prel.Row {
	workers := e.workerCount()
	morsels := (n + morselSize - 1) / morselSize
	if workers > morsels {
		workers = morsels
	}
	outs := make([][]prel.Row, morsels)
	locals := make([]workerStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				// poll (not just stopped): the per-morsel loop is too
				// short-lived for an amortized tick to fire, so the claim
				// loop is where parallel workers observe cancellation.
				if e.gd.poll() != nil {
					return
				}
				m := int(next.Add(1)) - 1
				if m >= morsels {
					return
				}
				lo := m * morselSize
				hi := min(lo+morselSize, n)
				outs[m] = apply(lo, hi, &locals[w].Stats)
			}
		}(w)
	}
	wg.Wait()
	for i := range locals {
		e.stats.Add(locals[i].Stats)
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]prel.Row, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// parallelHashJoinIter executes the extended hash join ⋈_{φ,F} with a
// partitioned parallel build and a morsel-parallel probe over the shared
// read-only partition tables. Each build partition owns the keys with
// hash ≡ partition (mod P) and inserts its rows in global row order, so
// every per-key candidate list — and therefore the probe output — is
// identical to the sequential hashJoinBatch's.
//
// Both sides are drained batch by batch, computing each row's key hash
// with the vector kernel (expr.HashCols) while the window is still live;
// the partitioned build and the morsel probe consume the precomputed
// hashes by global row offset (fanOutMorsels). Inputs of at most one
// morsel per side run the same build and probe inline, on one partition.
type parallelHashJoinIter struct {
	e           *Executor
	left, right batchIter
	eqL, eqR    []int

	built bool
	out   []prel.Row
	pos   int
}

func (p *parallelHashJoinIter) next() (prel.Row, bool) {
	if !p.built {
		p.run()
		p.built = true
	}
	if p.pos >= len(p.out) {
		return prel.Row{}, false
	}
	r := p.out[p.pos]
	p.pos++
	return r, true
}

// drainSide buffers one join side from its batch source, computing each
// row's key hash with the vector kernel (expr.HashCols) while the batch's
// column windows are still live. The buffered rows are the batch's row
// views — stable, store-owned storage — never the windows themselves (the
// build-side borrow contract). Batches whose key columns lack typed
// vectors fall back to tuple hashing; for the probe side, direct[i]
// records which rows were hashed off the vectors, so the probe can count
// only their matches as late materialization (fallback columnar rows were
// already fully touched — and counted — here).
func (p *parallelHashJoinIter) drainSide(in batchIter, keys []int, probe bool) (rows []prel.Row, hashes []uint64, direct []bool) {
	stats := &p.e.stats
	var ks expr.KeyScratch
	var hbuf []uint64
	for {
		b, ok := in.nextBatch()
		if !ok {
			break
		}
		if probe {
			stats.JoinProbeBatches++
		}
		n := len(b.Sel)
		if cap(hbuf) < n {
			hbuf = make([]uint64, n)
		}
		hb := hbuf[:n]
		isDirect := b.Columnar() && expr.HashCols(b.Cols, b.Sel, keys, hb, &ks)
		if !isDirect {
			rs := b.Rows()
			if b.Columnar() {
				stats.RowsMaterialized += n
			}
			for k, j := range b.Sel {
				hb[k] = hashCols(rs[j], keys)
			}
		} else if !probe {
			// Build rows are retained as the join's buffered state: the
			// whole side crosses the materialization boundary here.
			stats.RowsMaterialized += n
		}
		hashes = append(hashes, hb...)
		if probe {
			for i := 0; i < n; i++ {
				direct = append(direct, isDirect)
			}
		}
		rows = b.AppendRows(rows)
	}
	return rows, hashes, direct
}

func (p *parallelHashJoinIter) run() {
	lRows, hashes, _ := p.drainSide(p.left, p.eqL, false)
	rRows, rHashes, rDirect := p.drainSide(p.right, p.eqR, true)
	small := len(lRows) <= morselSize && len(rRows) <= morselSize
	parts := uint64(p.e.workerCount())
	if small {
		parts = 1
	}

	// The build side is buffered state: charge it against the query's
	// budgets once (the sequential hash join meters the same total).
	if g := p.e.gd; g != nil && len(lRows) > 0 {
		_ = g.add(len(lRows), len(lRows)*(len(lRows[0].Tuple)+2))
	}
	if p.e.gd.stopped() {
		return
	}

	// Partitioned build: one goroutine per partition, inserting in global
	// row order; each partition polls the guard amortized so a mid-build
	// cancellation drains the pool within one poll interval.
	tables := make([]map[uint64][]prel.Row, parts)
	build := func(j uint64) {
		tick := pollTick{g: p.e.gd}
		t := map[uint64][]prel.Row{}
		for i, h := range hashes {
			if tick.stop() {
				return
			}
			if h%parts == j {
				t[h] = append(t[h], lRows[i])
			}
		}
		tables[j] = t
	}
	if small {
		build(0)
	} else {
		var wg sync.WaitGroup
		for j := uint64(0); j < parts; j++ {
			wg.Add(1)
			go func(j uint64) {
				defer wg.Done()
				build(j)
			}(j)
		}
		wg.Wait()
	}
	if p.e.gd.stopped() {
		return
	}
	for _, t := range tables {
		debugCheckJoinTable(t, p.eqL)
	}

	// Morsel-parallel probe against the shared read-only tables; ordered
	// merge restores the sequential probe order. A probe row hashed off the
	// vectors counts as materialized only when it joins.
	probe := func(lo, hi int, stats *Stats) []prel.Row {
		var out []prel.Row
		for i := lo; i < hi; i++ {
			rRow, key := rRows[i], rHashes[i]
			matched := false
			for _, lRow := range tables[key%parts][key] {
				if equalOn(lRow.Tuple, rRow.Tuple, p.eqL, p.eqR) {
					out = append(out, combineRows(lRow, rRow, p.e.Agg))
					matched = true
				}
			}
			if matched && rDirect[i] {
				stats.RowsMaterialized++
			}
		}
		return out
	}
	if small {
		p.out = probe(0, len(rRows), &p.e.stats)
	} else {
		p.out = p.e.fanOutMorsels(len(rRows), probe)
	}
}

// parallelTopK selects the k best rows with per-worker bounded heaps over
// contiguous partitions, merged by prel.MergeTopK. Ranking ties break by
// input position, so the selection matches the sequential bounded heap
// (which keeps the earliest-seen rows at the k boundary).
func (e *Executor) parallelTopK(rows []prel.Row, k int, byConf bool) []prel.Row {
	workers := e.workerCount()
	chunk := (len(rows) + workers - 1) / workers
	if chunk < morselSize {
		chunk = morselSize
	}
	nParts := (len(rows) + chunk - 1) / chunk
	parts := make([][]prel.SeqRow, nParts)
	var wg sync.WaitGroup
	for i := 0; i < nParts; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(rows))
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			parts[i] = prel.TopKSeq(rows[lo:hi], lo, k, byConf)
		}(i, lo, hi)
	}
	wg.Wait()
	return prel.MergeTopK(parts, k, byConf)
}
