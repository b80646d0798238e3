package exec

import (
	"fmt"
	"sort"
	"strings"

	"prefdb/internal/algebra"
	"prefdb/internal/catalog"
	"prefdb/internal/debug"
	"prefdb/internal/expr"
	"prefdb/internal/pref"
	"prefdb/internal/prel"
	"prefdb/internal/schema"
	"prefdb/internal/storage"
	"prefdb/internal/types"
)

// projectChunkRows sizes the arena chunks projection allocates: one
// allocation serves this many output tuples.
const projectChunkRows = 256

// projectArena hands out fixed-width tuple slices carved from chunked
// backing arrays. Chunks are allocated as needed and never recycled, so
// every tuple it returns has stable storage for the life of the query.
//
// Aliasing contract: tuples from the same arena share a backing array per
// chunk. Each tuple is sliced with a full slice expression (capacity
// pinned to its width), so appends cannot spill into a neighbour; the
// pipeline never mutates tuples in place, so sharing is safe.
type projectArena struct {
	width int
	buf   []types.Value
}

// tuple returns a zeroed slice of the arena's width.
func (a *projectArena) tuple() []types.Value {
	debug.Assertf(a.width > 0, "projectArena used before its width was set")
	if cap(a.buf)-len(a.buf) < a.width {
		a.buf = make([]types.Value, 0, projectChunkRows*a.width)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+a.width]
	return a.buf[start : start+a.width : start+a.width]
}

func cmpFloat(v float64, op expr.Op, ref float64) bool {
	switch op {
	case expr.OpEq:
		return v == ref
	case expr.OpNe:
		return v != ref
	case expr.OpLt:
		return v < ref
	case expr.OpLe:
		return v <= ref
	case expr.OpGt:
		return v > ref
	case expr.OpGe:
		return v >= ref
	default:
		return false
	}
}

// --- scans and access paths ---

// tryIndexPath returns an index-backed batch source for a single conjunct
// of the form col = lit (hash or btree index) or col <cmp> lit / BETWEEN
// (btree index), or nil when no index applies.
func (e *Executor) tryIndexPath(t *catalog.Table, s *schema.Schema, c expr.Node) batchIter {
	switch n := c.(type) {
	case expr.Bin:
		col, lit, op, ok := expr.BindColLit(s, n)
		// A NULL literal compares true with nothing; the residual filter
		// says so, while the index would read it as a key or as unbounded.
		if !ok || lit.IsNull() {
			return nil
		}
		name := strings.ToLower(col.Name)
		if op == expr.OpEq {
			if ix, ok := t.HashIndexOn(name); ok {
				return e.fetchIDs(t, ix.Lookup([]types.Value{lit}))
			}
			if ix, ok := t.BTreeIndexOn(name); ok {
				return e.fetchIDs(t, ix.Lookup(lit))
			}
			return nil
		}
		ix, ok := t.BTreeIndexOn(name)
		if !ok {
			return nil
		}
		var lo, hi types.Value
		loIncl, hiIncl := true, true
		switch op {
		case expr.OpLt:
			hi, hiIncl = lit, false
		case expr.OpLe:
			hi = lit
		case expr.OpGt:
			lo, loIncl = lit, false
		case expr.OpGe:
			lo = lit
		default:
			return nil
		}
		return e.btreeRange(t, ix, lo, hi, loIncl, hiIncl)

	case expr.Between:
		col, okC := n.X.(expr.Col)
		loLit, okLo := n.Lo.(expr.Lit)
		hiLit, okHi := n.Hi.(expr.Lit)
		if !okC || !okLo || !okHi || loLit.Val.IsNull() || hiLit.Val.IsNull() {
			return nil
		}
		if _, err := s.IndexOf(col.Table, col.Name); err != nil {
			return nil
		}
		ix, ok := t.BTreeIndexOn(strings.ToLower(col.Name))
		if !ok {
			return nil
		}
		return e.btreeRange(t, ix, loLit.Val, hiLit.Val, true, true)
	}
	return nil
}

func (e *Executor) btreeRange(t *catalog.Table, ix *storage.BTreeIndex, lo, hi types.Value, loIncl, hiIncl bool) batchIter {
	var ids []storage.RowID
	ix.Range(lo, hi, loIncl, hiIncl, func(id storage.RowID) bool {
		ids = append(ids, id)
		return true
	})
	return e.fetchIDs(t, ids)
}

// fetchIDs counts one index probe and returns the source fetching ids.
func (e *Executor) fetchIDs(t *catalog.Table, ids []storage.RowID) batchIter {
	e.stats.IndexProbes++
	return &idBatchSrc{heap: t.Heap, ids: ids, stats: &e.stats, tick: pollTick{g: e.gd}, size: e.batchSize()}
}

// --- joins ---

// splitEquiJoin partitions a join condition into equi-join column pairs
// (left ordinal, right ordinal) and a residual condition.
func splitEquiJoin(cond expr.Node, lS, rS *schema.Schema) (eqL, eqR []int, residual expr.Node) {
	var rest []expr.Node
	for _, c := range expr.Conjuncts(cond) {
		b, ok := c.(expr.Bin)
		if !ok || b.Op != expr.OpEq {
			rest = append(rest, c)
			continue
		}
		lc, lok := b.L.(expr.Col)
		rc, rok := b.R.(expr.Col)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		if li, err := lS.IndexOf(lc.Table, lc.Name); err == nil {
			if ri, err2 := rS.IndexOf(rc.Table, rc.Name); err2 == nil {
				eqL, eqR = append(eqL, li), append(eqR, ri)
				continue
			}
		}
		if li, err := lS.IndexOf(rc.Table, rc.Name); err == nil {
			if ri, err2 := rS.IndexOf(lc.Table, lc.Name); err2 == nil {
				eqL, eqR = append(eqL, li), append(eqR, ri)
				continue
			}
		}
		rest = append(rest, c)
	}
	return eqL, eqR, expr.AndAll(rest)
}

func hashCols(tuple []types.Value, cols []int) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range cols {
		h ^= tuple[c].Hash()
		h *= 1099511628211
	}
	return h
}

// anyNull reports whether any of the tuple's cols is NULL.
func anyNull(tuple []types.Value, cols []int) bool {
	for _, c := range cols {
		if tuple[c].IsNull() {
			return true
		}
	}
	return false
}

func equalOn(l, r []types.Value, eqL, eqR []int) bool {
	for i := range eqL {
		if !l[eqL[i]].Equal(r[eqR[i]]) {
			return false
		}
	}
	return true
}

// --- set operations ---

// buildSet compiles ∪_F, ∩_F and −. All three drain both inputs and
// operate on tuple fingerprints; duplicate tuples within an input are
// combined via F first (p-relations are sets of tuples).
func (e *Executor) buildSet(s *algebra.Set) (batchIter, *schema.Schema, error) {
	lBi, lS, err := e.buildBatch(s.Left)
	if err != nil {
		return nil, nil, err
	}
	rBi, rS, err := e.buildBatch(s.Right)
	if err != nil {
		return nil, nil, err
	}
	if !lS.EqualLayout(rS) {
		return nil, nil, fmt.Errorf("exec: %s inputs are not union-compatible: %s vs %s", s.Op, lS, rS)
	}
	lRows, lIndex := dedupByTuple(e.drainBatches(lBi), e.Agg, e.gd)
	rRows, rIndex := dedupByTuple(e.drainBatches(rBi), e.Agg, e.gd)

	var out []prel.Row
	switch s.Op {
	case algebra.SetUnion:
		out = append(out, lRows...)
		for _, row := range rRows {
			if li, dup := lIndex.lookup(row.Tuple); dup {
				out[li].SC = e.Agg.Combine(out[li].SC, row.SC)
			} else {
				out = append(out, row)
			}
		}
	case algebra.SetIntersect:
		for _, row := range rRows {
			if li, hit := lIndex.lookup(row.Tuple); hit {
				out = append(out, prel.Row{Tuple: lRows[li].Tuple, SC: e.Agg.Combine(lRows[li].SC, row.SC)})
			}
		}
	case algebra.SetDiff:
		for _, row := range lRows {
			if _, hit := rIndex.lookup(row.Tuple); !hit {
				out = append(out, row)
			}
		}
	}
	return newSliceBatchSrc(out, e.batchSize()), lS, nil
}

// tupleIndex maps tuples to indices in a deduplicated row slice, bucketed
// by types.HashTuple with full-tuple equality confirm — no per-row string
// key is built (the old implementation fingerprinted every tuple into a
// string). Equality is types.TupleEqual, matching the hash-join probe and
// Value.Hash's contract that equal values hash identically.
type tupleIndex struct {
	buckets map[uint64][]int
	rows    []prel.Row
}

// lookup returns the index of the deduplicated row equal to tuple.
func (ix *tupleIndex) lookup(tuple []types.Value) (int, bool) {
	for _, i := range ix.buckets[types.HashTuple(tuple)] {
		if types.TupleEqual(ix.rows[i].Tuple, tuple) {
			return i, true
		}
	}
	return 0, false
}

// dedupByTuple collapses duplicate tuples (combining pairs via F, since a
// p-relation is a set of tuples), preserving first-seen order, and returns
// the surviving rows plus an index over them.
func dedupByTuple(rows []prel.Row, agg pref.Aggregate, g *guard) ([]prel.Row, *tupleIndex) {
	out := make([]prel.Row, 0, len(rows))
	ix := &tupleIndex{buckets: make(map[uint64][]int, len(rows))}
	tick := pollTick{g: g}
	for _, row := range rows {
		if tick.stop() {
			break // partial: the tripped guard surfaces from drain
		}
		h := types.HashTuple(row.Tuple)
		dup := false
		for _, i := range ix.buckets[h] {
			if types.TupleEqual(out[i].Tuple, row.Tuple) {
				out[i].SC = agg.Combine(out[i].SC, row.SC)
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ix.buckets[h] = append(ix.buckets[h], len(out))
		out = append(out, row)
	}
	ix.rows = out
	return out, ix
}

// skyline keeps rows not dominated in the (score, conf) plane — the
// winnow under Pareto dominance. One pass records each score's maximum
// confidence; sweeping the distinct scores downwards keeps the frontier,
// the scores whose maximum confidence exceeds that of every higher score.
// A row survives iff its score is on the frontier and its confidence is
// that maximum. Only the survivors are sorted (SortByScore), which orders
// them exactly as sorting the whole input first would. Rows with ⊥ pairs
// are dominated by any known row.
func skyline(rows []prel.Row) []prel.Row {
	maxConf := map[float64]float64{} // score → its rows' maximum confidence (+0 and -0 share a key)
	var unknown []prel.Row
	for _, r := range rows {
		if !r.SC.Known {
			unknown = append(unknown, r)
			continue
		}
		c, ok := maxConf[r.SC.Score]
		if !ok {
			c = -1 // below every confidence, like the sweep's floor
		}
		if r.SC.Conf > c {
			maxConf[r.SC.Score] = r.SC.Conf
		}
	}
	if len(unknown) == len(rows) {
		return unknown // nothing dominates anything
	}
	scores := make([]float64, 0, len(maxConf))
	for s := range maxConf {
		scores = append(scores, s)
	}
	sort.Float64s(scores)
	bestConfAbove := -1.0 // max conf among strictly higher scores
	for i := len(scores) - 1; i >= 0; i-- {
		if c := maxConf[scores[i]]; c > bestConfAbove {
			bestConfAbove = c
		} else {
			delete(maxConf, scores[i])
		}
	}
	out := prel.PRelation{}
	for _, r := range rows {
		if c, ok := maxConf[r.SC.Score]; ok && r.SC.Known && r.SC.Conf == c {
			out.Rows = append(out.Rows, r)
		}
	}
	out.SortByScore()
	return out.Rows
}

// attrSkyline computes the attribute skyline of Börzsönyi et al. over the
// listed numeric dimensions, using their block-nested-loops algorithm: a
// window of mutually incomparable tuples is maintained; each candidate is
// dropped if dominated by a window tuple, replaces any window tuples it
// dominates, and joins the window otherwise. NULL dimension values rank
// worse than any number.
func attrSkyline(rel *prel.PRelation, dims []algebra.SkyDim, g *guard) ([]prel.Row, error) {
	ords := make([]int, len(dims))
	maxes := make([]bool, len(dims))
	for i, d := range dims {
		idx, err := rel.Schema.IndexOf(d.Col.Table, d.Col.Name)
		if err != nil {
			return nil, err
		}
		ords[i] = idx
		maxes[i] = d.Max
	}
	// dimVal extracts a "bigger is better" coordinate.
	dimVal := func(row prel.Row, i int) (float64, bool) {
		v := row.Tuple[ords[i]]
		if v.IsNull() || !v.IsNumeric() {
			return 0, false // worst
		}
		f := v.AsFloat()
		if !maxes[i] {
			f = -f
		}
		return f, true
	}
	// dominates reports whether a is at least as good as b in every
	// dimension and strictly better in one.
	dominates := func(a, b prel.Row) bool {
		strict := false
		for i := range ords {
			av, aok := dimVal(a, i)
			bv, bok := dimVal(b, i)
			switch {
			case !aok && !bok:
				// equal (both unknown)
			case !aok:
				return false // a worse in dim i
			case !bok:
				strict = true
			case av < bv:
				return false
			case av > bv:
				strict = true
			}
		}
		return strict
	}
	// The block-nested-loops sweep is quadratic, so it polls the guard per
	// candidate (amortized) to stay cancelable on adversarial inputs.
	tick := pollTick{g: g}
	var window []prel.Row
candidates:
	for _, cand := range rel.Rows {
		if tick.stop() {
			return nil, g.failure()
		}
		kept := window[:0]
		for _, w := range window {
			if dominates(w, cand) {
				continue candidates // window survives untouched
			}
			if !dominates(cand, w) {
				kept = append(kept, w)
			}
		}
		window = append(kept, cand)
	}
	return window, nil
}

// orderRows stably sorts a relation by the attribute keys (NULLs first on
// ascending keys, mirroring the total order of types.Compare).
func orderRows(rel *prel.PRelation, keys []algebra.OrderKey) error {
	ords := make([]int, len(keys))
	for i, k := range keys {
		idx, err := rel.Schema.IndexOf(k.Col.Table, k.Col.Name)
		if err != nil {
			return err
		}
		ords[i] = idx
	}
	sort.SliceStable(rel.Rows, func(i, j int) bool {
		a, b := rel.Rows[i], rel.Rows[j]
		for d, o := range ords {
			c, _ := types.Compare(a.Tuple[o], b.Tuple[o])
			if c == 0 {
				continue
			}
			if keys[d].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}
