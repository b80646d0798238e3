// Package algebra defines the logical preference-aware relational algebra
// of the paper: the classical operators extended to p-relations, the prefer
// operator λ_{p,F}, and the tuple-filtering operators that the paper keeps
// deliberately separate from preference evaluation (top-k, confidence
// threshold, skyline, rank).
//
// An extended query plan is an expression tree whose leaves are p-relations
// (Scan nodes) and whose internal nodes are extended relational and prefer
// operators (§VI).
package algebra

import (
	"fmt"
	"strings"

	"prefdb/internal/expr"
	"prefdb/internal/pref"
)

// Node is a logical plan operator.
type Node interface {
	// Children returns the input operators in order.
	Children() []Node
	// WithChildren returns a copy of the node with the inputs replaced;
	// len must match Children.
	WithChildren(children []Node) Node
	// String renders the operator (one line, without inputs).
	String() string
}

// Scan reads a base p-relation from the catalog. Alias defaults to the
// table name and qualifies the output columns.
type Scan struct {
	Table string
	Alias string
	// SegCount/SegSkip carry the optimizer's zone-map annotation for
	// EXPLAIN: how many columnar segments the table holds and how many the
	// enclosing filter's conjuncts are expected to skip. Zero SegCount
	// means no segment store was built (or the annotation pass is off).
	SegCount int
	SegSkip  int
	// DirectCol marks that the enclosing filter compiled at least one
	// direct-column kernel, so a colstore-backed scan can evaluate it on
	// borrowed segment vectors without materializing row views (EXPLAIN
	// renders `[direct-col]`).
	DirectCol bool
}

// Select is σ_φ over a p-relation; it filters tuples and passes score and
// confidence through unchanged.
type Select struct {
	Cond  expr.Node
	Input Node
}

// Project is π over a p-relation; it keeps the listed columns and always
// preserves the score and confidence attributes.
type Project struct {
	Cols  []expr.Col
	Input Node
}

// Join is the extended inner join ⋈_{φ,F}: tuples that join combine their
// score-confidence pairs with the query's aggregate function.
type Join struct {
	Cond        expr.Node
	Left, Right Node
	// DirectJoin marks that the join qualifies for direct-on-column
	// execution: an equi-join whose probe side is a colstore-backed scan
	// with typed key vectors, so the hash probe runs on borrowed segment
	// vectors and materializes row views only for matching tuples
	// (EXPLAIN renders `[direct-join]`).
	DirectJoin bool
	// BuildRight marks an equi-join whose hash table is built on the right
	// input (the one with the smaller estimate) and probed with the left.
	// The output layout stays left ++ right and pairs still combine as
	// F(left, right); only the row order differs (EXPLAIN renders
	// `[build-right]`).
	BuildRight bool
}

// SetOp enumerates the extended set operations.
type SetOp uint8

const (
	// SetUnion is ∪_F with duplicate elimination; pairs of duplicates
	// combine via F.
	SetUnion SetOp = iota
	// SetIntersect is ∩_F; matching tuples combine via F.
	SetIntersect
	// SetDiff is R_i − R_j; scores of R_i pass through.
	SetDiff
)

func (o SetOp) String() string {
	switch o {
	case SetUnion:
		return "Union"
	case SetIntersect:
		return "Intersect"
	default:
		return "Diff"
	}
}

// Set is a set operation over union-compatible p-relations.
type Set struct {
	Op          SetOp
	Left, Right Node
}

// Prefer is λ_{p,F}: it evaluates preference P on its input, combining the
// preference's ⟨S(r), C⟩ with each qualifying tuple's current pair through
// the aggregate function; non-qualifying tuples pass unchanged.
type Prefer struct {
	P     pref.Preference
	Input Node
}

// RankBy selects which dimension a filtering operator orders or thresholds
// on.
type RankBy uint8

const (
	// ByScore orders/thresholds on the tuple score.
	ByScore RankBy = iota
	// ByConf orders/thresholds on the tuple confidence.
	ByConf
)

func (r RankBy) String() string {
	if r == ByConf {
		return "conf"
	}
	return "score"
}

// TopK is the filtering operator top(k, by): order by the chosen dimension
// descending (unknown scores last) and keep the k best.
type TopK struct {
	K     int
	By    RankBy
	Input Node
}

// Threshold filters on the score or confidence dimension, e.g.
// σ_{conf ≥ τ} of the paper's Q2. Op must be a comparison operator.
type Threshold struct {
	By    RankBy
	Op    expr.Op
	Value float64
	Input Node
}

// SkyDim is one dimension of an attribute skyline: a column plus the
// preferred direction (Max true = larger is better).
type SkyDim struct {
	Col expr.Col
	Max bool
}

// String renders "col MAX" / "col MIN".
func (d SkyDim) String() string {
	if d.Max {
		return d.Col.String() + " MAX"
	}
	return d.Col.String() + " MIN"
}

// Skyline keeps the tuples not dominated by any other tuple. With no Dims
// it operates on the (score, conf) plane of the p-relation; with Dims it is
// the classic attribute skyline of Börzsönyi et al. (the paper's related
// work [6]) over the listed columns.
type Skyline struct {
	// Dims are the skyline dimensions; empty means (score, conf).
	Dims  []SkyDim
	Input Node
}

// Rank orders all tuples by the chosen dimension descending without
// discarding any ("all results ranked").
type Rank struct {
	By    RankBy
	Input Node
}

// OrderKey is one ORDER BY key: an attribute column and direction.
type OrderKey struct {
	Col  expr.Col
	Desc bool
}

// String renders "col" or "col DESC".
func (k OrderKey) String() string {
	if k.Desc {
		return k.Col.String() + " DESC"
	}
	return k.Col.String()
}

// OrderBy sorts tuples by attribute columns (stable); unlike Rank it orders
// on data values, not on the preference dimensions.
type OrderBy struct {
	Keys  []OrderKey
	Input Node
}

// Limit keeps at most N tuples after skipping Offset.
type Limit struct {
	N      int
	Offset int
	Input  Node
}

func (s *Scan) Children() []Node { return nil }
func (s *Scan) WithChildren(c []Node) Node {
	mustArity(c, 0)
	cp := *s
	return &cp
}
func (s *Scan) String() string {
	var suffix string
	if s.SegCount > 0 {
		suffix = fmt.Sprintf(" [segments %d skip≈%d]", s.SegCount, s.SegSkip)
	}
	if s.DirectCol {
		suffix += " [direct-col]"
	}
	if s.Alias != "" && !strings.EqualFold(s.Alias, s.Table) {
		return fmt.Sprintf("Scan(%s AS %s)%s", s.Table, s.Alias, suffix)
	}
	return fmt.Sprintf("Scan(%s)%s", s.Table, suffix)
}

// AliasName returns the effective alias (lower-case).
func (s *Scan) AliasName() string {
	if s.Alias != "" {
		return strings.ToLower(s.Alias)
	}
	return strings.ToLower(s.Table)
}

func (s *Select) Children() []Node { return []Node{s.Input} }
func (s *Select) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Select{Cond: s.Cond, Input: c[0]}
}
func (s *Select) String() string { return fmt.Sprintf("Select(%s)", s.Cond) }

func (p *Project) Children() []Node { return []Node{p.Input} }
func (p *Project) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Project{Cols: p.Cols, Input: c[0]}
}
func (p *Project) String() string {
	cols := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		cols[i] = c.String()
	}
	return fmt.Sprintf("Project(%s)", strings.Join(cols, ", "))
}

func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }
func (j *Join) WithChildren(c []Node) Node {
	mustArity(c, 2)
	cp := *j // preserve the join annotations across plan rewrites
	cp.Left, cp.Right = c[0], c[1]
	return &cp
}
func (j *Join) String() string {
	var suffix string
	if j.DirectJoin {
		suffix = " [direct-join]"
	}
	if j.BuildRight {
		suffix += " [build-right]"
	}
	if j.Cond == nil {
		return "Join(cross)" + suffix
	}
	return fmt.Sprintf("Join(%s)%s", j.Cond, suffix)
}

func (s *Set) Children() []Node { return []Node{s.Left, s.Right} }
func (s *Set) WithChildren(c []Node) Node {
	mustArity(c, 2)
	return &Set{Op: s.Op, Left: c[0], Right: c[1]}
}
func (s *Set) String() string { return s.Op.String() + "()" }

func (p *Prefer) Children() []Node { return []Node{p.Input} }
func (p *Prefer) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Prefer{P: p.P, Input: c[0]}
}
func (p *Prefer) String() string { return fmt.Sprintf("Prefer(%s)", p.P.Label()) }

func (t *TopK) Children() []Node { return []Node{t.Input} }
func (t *TopK) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &TopK{K: t.K, By: t.By, Input: c[0]}
}
func (t *TopK) String() string { return fmt.Sprintf("Top(%d, %s)", t.K, t.By) }

func (t *Threshold) Children() []Node { return []Node{t.Input} }
func (t *Threshold) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Threshold{By: t.By, Op: t.Op, Value: t.Value, Input: c[0]}
}
func (t *Threshold) String() string {
	return fmt.Sprintf("Threshold(%s %s %g)", t.By, t.Op, t.Value)
}

func (s *Skyline) Children() []Node { return []Node{s.Input} }
func (s *Skyline) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Skyline{Dims: s.Dims, Input: c[0]}
}
func (s *Skyline) String() string {
	if len(s.Dims) == 0 {
		return "Skyline()"
	}
	parts := make([]string, len(s.Dims))
	for i, d := range s.Dims {
		parts[i] = d.String()
	}
	return "Skyline(" + strings.Join(parts, ", ") + ")"
}

func (r *Rank) Children() []Node { return []Node{r.Input} }
func (r *Rank) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Rank{By: r.By, Input: c[0]}
}
func (r *Rank) String() string { return fmt.Sprintf("Rank(%s)", r.By) }

func (o *OrderBy) Children() []Node { return []Node{o.Input} }
func (o *OrderBy) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &OrderBy{Keys: o.Keys, Input: c[0]}
}
func (o *OrderBy) String() string {
	parts := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		parts[i] = k.String()
	}
	return "OrderBy(" + strings.Join(parts, ", ") + ")"
}

func (l *Limit) Children() []Node { return []Node{l.Input} }
func (l *Limit) WithChildren(c []Node) Node {
	mustArity(c, 1)
	return &Limit{N: l.N, Offset: l.Offset, Input: c[0]}
}
func (l *Limit) String() string {
	if l.Offset > 0 {
		return fmt.Sprintf("Limit(%d, offset %d)", l.N, l.Offset)
	}
	return fmt.Sprintf("Limit(%d)", l.N)
}

func mustArity(c []Node, n int) {
	if len(c) != n {
		panic(fmt.Sprintf("algebra: WithChildren arity %d, want %d", len(c), n))
	}
}

// Walk visits n and all descendants in preorder; the visitor returns false
// to skip a subtree.
func Walk(n Node, visit func(Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Transform rebuilds the plan bottom-up, applying f to every node after its
// children have been transformed.
func Transform(n Node, f func(Node) Node) Node {
	children := n.Children()
	if len(children) > 0 {
		newChildren := make([]Node, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = Transform(c, f)
			if newChildren[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newChildren)
		}
	}
	return f(n)
}

// BaseRelations returns the set of base-relation aliases (lower-case)
// reachable under n.
func BaseRelations(n Node) map[string]bool {
	out := map[string]bool{}
	Walk(n, func(x Node) bool {
		if s, ok := x.(*Scan); ok {
			out[s.AliasName()] = true
		}
		return true
	})
	return out
}

// CountOps tallies operators by type name (for tests and explain output).
func CountOps(n Node) map[string]int {
	out := map[string]int{}
	Walk(n, func(x Node) bool {
		switch x.(type) {
		case *Scan:
			out["scan"]++
		case *Select:
			out["select"]++
		case *Project:
			out["project"]++
		case *Join:
			out["join"]++
		case *Set:
			out["set"]++
		case *Prefer:
			out["prefer"]++
		case *TopK, *Threshold, *Skyline, *Rank, *OrderBy, *Limit:
			out["filter"]++
		}
		return true
	})
	return out
}

// Format renders the plan as an indented tree, the explain format used by
// the CLI and tests.
func Format(n Node) string {
	var b strings.Builder
	format(&b, n, 0)
	return b.String()
}

func format(b *strings.Builder, n Node, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.String())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		format(b, c, depth+1)
	}
}

// Equal reports whether two plans are structurally identical.
func Equal(a, b Node) bool { return Format(a) == Format(b) }
