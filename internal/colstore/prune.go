package colstore

import (
	"prefdb/internal/expr"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Pred is one sargable filter conjunct normalized to column <op> literal,
// with the column resolved to its ordinal in the table schema. Zone-map
// pruning consults these before a segment is scanned.
type Pred struct {
	Ord int
	Op  expr.Op
	Lit types.Value
}

// PredsFrom extracts the prunable conjuncts of a pushed-down filter: plain
// comparisons between a column of s and a non-NULL literal (BindColLit's
// shape, the same one index selection and selectivity estimation use).
// Other conjuncts still run as kernels; they just cannot skip segments.
// NULL literals are excluded conservatively even though such comparisons
// reject every row — the filter kernel handles them and pruning stays
// simple.
func PredsFrom(s *schema.Schema, conjuncts []expr.Node) []Pred {
	var preds []Pred
	for _, c := range conjuncts {
		b, ok := c.(expr.Bin)
		if !ok {
			continue
		}
		col, lit, op, ok := expr.BindColLit(s, b)
		if !ok || lit.IsNull() {
			continue
		}
		ord, err := s.IndexOf(col.Table, col.Name)
		if err != nil {
			continue
		}
		preds = append(preds, Pred{Ord: ord, Op: op, Lit: lit})
	}
	return preds
}

// Skip reports whether the segment's zone maps prove that no live row can
// satisfy every pred, so the scan may drop the whole segment unread.
//
// Soundness rests on the engine's three-valued comparison semantics
// (internal/expr): a comparison with a NULL operand or between incomparable
// kinds yields NULL, which the filter rejects. Hence a segment skips on a
// conjunct when (a) every live value of the column is NULL, (b) the
// literal's kind is incomparable with the column's declared kind, which
// every non-NULL value has, or (c) the [Min, Max] range excludes the
// comparison.
func (seg *Segment) Skip(preds []Pred) bool {
	if seg.Live == 0 {
		return false // empty segments are elided by the scan itself
	}
	for _, p := range preds {
		z := &seg.Cols[p.Ord].Zone
		if z.NonNull == 0 {
			return true // all live rows NULL in this column: conjunct rejects all
		}
		cmpMin, okMin := types.Compare(p.Lit, z.Min)
		cmpMax, okMax := types.Compare(p.Lit, z.Max)
		if !okMin || !okMax {
			// Every value has the bounds' kind, so one incomparable bound
			// means every row comparison yields NULL and rejects.
			return true
		}
		switch p.Op {
		case expr.OpEq:
			if cmpMin < 0 || cmpMax > 0 {
				return true
			}
		case expr.OpNe:
			if cmpMin == 0 && cmpMax == 0 {
				return true // min == lit == max: every row equals the literal
			}
		case expr.OpLt: // col < lit: skip when min >= lit
			if cmpMin <= 0 {
				return true
			}
		case expr.OpLe: // col <= lit: skip when min > lit
			if cmpMin < 0 {
				return true
			}
		case expr.OpGt: // col > lit: skip when max <= lit
			if cmpMax >= 0 {
				return true
			}
		case expr.OpGe: // col >= lit: skip when max < lit
			if cmpMax > 0 {
				return true
			}
		}
	}
	return false
}

// EstimateSkip counts how many of the store's non-empty segments the preds
// would skip, for plan annotation and selectivity refinement. It is exact
// for the store it is called on (pruning is deterministic metadata
// arithmetic), but only an estimate for the plan, since the store may be
// rebuilt before execution.
func (st *Store) EstimateSkip(preds []Pred) (segments, skipped int) {
	for _, seg := range st.Segments {
		if seg.Live == 0 {
			continue
		}
		segments++
		if seg.Skip(preds) {
			skipped++
		}
	}
	return segments, skipped
}
