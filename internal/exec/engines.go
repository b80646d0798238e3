package exec

import (
	"context"
	"fmt"

	"prefdb/internal/algebra"
	"prefdb/internal/prel"
)

// Strategy selects the query evaluation algorithm (§VI-B).
type Strategy uint8

const (
	// Native runs the whole extended plan as one pipelined execution —
	// what a fully native engine (à la RankSQL) would do. It serves as the
	// correctness reference and the lower bound on materialization.
	Native Strategy = iota
	// BU (Bottom-Up) executes every operator separately in postorder,
	// materializing each intermediate result — the paper's greedy baseline,
	// superseded by GBU.
	BU
	// GBU (Group Bottom-Up) defers prefer-free operator groups and executes
	// each group as a single query delegated to the native engine,
	// materializing only at prefer (and filtering) boundaries — Alg. 2.
	GBU
	// FtP (Filter-then-Prefer) executes the non-preference query part
	// natively first, then evaluates all prefer operators on its result,
	// then filters — Alg. 1.
	FtP
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Native:
		return "native"
	case BU:
		return "bu"
	case GBU:
		return "gbu"
	case FtP:
		return "ftp"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Strategies lists all strategies in presentation order.
func Strategies() []Strategy { return []Strategy{Native, BU, GBU, FtP} }

// Run evaluates a plan with the chosen strategy. Counters accumulate into
// the executor's Stats (reset them between runs to isolate measurements).
//
// All four strategies share the executor's materialization machinery
// (Materialize / drain) and run on the caller's goroutine.
func (e *Executor) Run(plan algebra.Node, strategy Strategy) (*prel.PRelation, error) {
	return e.RunContext(context.Background(), plan, strategy)
}

// RunContext evaluates a plan with the chosen strategy under ctx and the
// executor's Limits. Cancellation, deadline expiry and budget trips abort
// the run cooperatively (see lifecycle.go) and return a *GuardError
// matching ErrCanceled, ErrDeadlineExceeded or ErrResourceExhausted via
// errors.Is; the error carries the Stats at failure. When nothing trips,
// results, order and Stats are identical to an unguarded Run.
func (e *Executor) RunContext(ctx context.Context, plan algebra.Node, strategy Strategy) (*prel.PRelation, error) {
	e.arm(ctx, e.Limits)
	rel, err := e.runStrategy(plan, strategy)
	if gErr := e.GuardErr(); gErr != nil {
		return nil, gErr
	}
	return rel, err
}

func (e *Executor) runStrategy(plan algebra.Node, strategy Strategy) (*prel.PRelation, error) {
	defer func() { e.own = nil }()
	if plan == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	switch strategy {
	case Native:
		return e.Materialize(plan)
	case BU:
		return e.runBU(plan)
	case GBU:
		return e.runGBU(plan)
	case FtP:
		return e.runFtP(plan)
	default:
		return nil, fmt.Errorf("exec: unknown strategy %v", strategy)
	}
}

// --- Bottom-Up ---

// runBU performs a postorder traversal, executing each operator separately
// and materializing its result into a temporary relation, like the paper's
// BU: "directly and separately executes each operation and materializes
// the temporary results".
func (e *Executor) runBU(plan algebra.Node) (*prel.PRelation, error) {
	node, err := e.buNode(plan)
	if err != nil {
		return nil, err
	}
	if v, ok := node.(*algebra.Values); ok {
		return v.Rel, nil
	}
	// The plan was a bare leaf (e.g. a single Scan).
	return e.Materialize(node)
}

// buNode executes one operator over already-materialized inputs. Leaves
// (base relations and materialized values) are not copied — only operator
// outputs become temporary relations (temp), which a prefer over them
// scores in place.
func (e *Executor) buNode(n algebra.Node) (algebra.Node, error) {
	switch n.(type) {
	case *algebra.Scan, *algebra.Values:
		return n, nil
	}
	children := n.Children()
	mats := make([]algebra.Node, len(children))
	for i, c := range children {
		m, err := e.buNode(c)
		if err != nil {
			return nil, err
		}
		mats[i] = m
	}
	node := n.WithChildren(mats)
	var rel *prel.PRelation
	var err error
	switch node.(type) {
	case *algebra.Prefer, *algebra.TopK, *algebra.Threshold, *algebra.Skyline,
		*algebra.Rank, *algebra.OrderBy, *algebra.Limit:
		// Prefer and filtering operators are evaluated by the preference
		// engine (UDFs in the paper's prototype), not delegated as native
		// queries.
		rel, err = e.drain(node)
	default:
		rel, err = e.Materialize(node)
	}
	if err != nil {
		return nil, err
	}
	return e.temp(rel, "R", node), nil
}

// --- Group Bottom-Up ---

// runGBU implements Alg. 2: it defers operator execution wherever possible
// and combines maximal prefer-free subtrees into single queries delegated
// to the native executor; prefer and filtering operators force
// materialization of their (combined) input.
func (e *Executor) runGBU(n algebra.Node) (*prel.PRelation, error) {
	deferred, err := e.gbu(n)
	if err != nil {
		return nil, err
	}
	if v, ok := deferred.(*algebra.Values); ok {
		return v.Rel, nil
	}
	return e.Materialize(deferred)
}

// gbu rewrites the plan bottom-up: boundary operators (prefer, filters) are
// executed eagerly over their combined inputs; everything else is deferred.
// The result is either a Values leaf (executed) or a deferred subtree to be
// combined into the parent's query.
func (e *Executor) gbu(n algebra.Node) (algebra.Node, error) {
	if !hasBoundary(n) {
		return n, nil // whole subtree is one native group; defer it
	}
	switch n.(type) {
	case *algebra.Prefer, *algebra.TopK, *algebra.Threshold, *algebra.Skyline,
		*algebra.Rank, *algebra.OrderBy, *algebra.Limit:
		child, err := e.gbu(n.Children()[0])
		if err != nil {
			return nil, err
		}
		// Base accesses (scans, possibly under selections/projections, and
		// already-materialized groups) feed the operator directly — the
		// paper evaluates prefer UDFs straight on base relations through
		// their access paths; other deferred groups are combined into one
		// query and materialized first.
		input := child
		if !isBaseAccess(child) {
			childRel, err := e.Materialize(child)
			if err != nil {
				return nil, err
			}
			input = e.temp(childRel, "G", child)
		}
		node := n.WithChildren([]algebra.Node{input})
		// Prefer and filtering operators run in the preference engine (the
		// paper's UDF layer), not as delegated native queries; a prefer
		// over a G relation scores it in place.
		rel, err := e.drain(node)
		if err != nil {
			return nil, err
		}
		return e.temp(rel, "G", node), nil
	default:
		children := n.Children()
		newChildren := make([]algebra.Node, len(children))
		for i, c := range children {
			nc, err := e.gbu(c)
			if err != nil {
				return nil, err
			}
			newChildren[i] = nc
		}
		return n.WithChildren(newChildren), nil
	}
}

// isBaseAccess reports whether a plan node is a direct base-relation access
// — a scan or a materialized leaf, optionally under selections and
// projections — which prefer operators consume without an intermediate
// materialization (heuristic 3 places λ "just on top of a select or
// project operator" and expects index-based access there).
func isBaseAccess(n algebra.Node) bool {
	switch x := n.(type) {
	case *algebra.Scan, *algebra.Values:
		return true
	case *algebra.Select:
		return isBaseAccess(x.Input)
	case *algebra.Project:
		return isBaseAccess(x.Input)
	default:
		return false
	}
}

// hasBoundary reports whether the subtree contains a prefer or filtering
// operator (the operators the native engine cannot execute).
func hasBoundary(n algebra.Node) bool {
	found := false
	algebra.Walk(n, func(x algebra.Node) bool {
		switch x.(type) {
		case *algebra.Prefer, *algebra.TopK, *algebra.Threshold, *algebra.Skyline,
			*algebra.Rank, *algebra.OrderBy, *algebra.Limit:
			found = true
			return false
		}
		return true
	})
	return found
}

// --- Filter-then-Prefer ---

// runFtP implements Alg. 1: extract the non-preference query part Q_NP
// (the plan with prefer and filtering operators removed — the projections
// required by prefer conditions were already added by the planner), execute
// it natively, evaluate every prefer operator on its result R_NP instead of
// the base relations, then apply the filtering operators.
//
// Like the paper's algorithm, FtP evaluates preference conditions on R_NP
// tuples by attribute values, not provenance; plans where a preference
// under one branch of a set operation could match tuples contributed only
// by the other branch are outside its contract.
func (e *Executor) runFtP(plan algebra.Node) (*prel.PRelation, error) {
	// Peel filtering operators off the root (they run last).
	var filters []algebra.Node
	core := plan
	for {
		switch core.(type) {
		case *algebra.TopK, *algebra.Threshold, *algebra.Skyline,
			*algebra.Rank, *algebra.OrderBy, *algebra.Limit:
			filters = append(filters, core)
			core = core.Children()[0]
			continue
		}
		break
	}

	// Collect prefer operators in plan order and build Q_NP.
	var prefers []*algebra.Prefer
	qnp := algebra.Transform(core, func(n algebra.Node) algebra.Node {
		if p, ok := n.(*algebra.Prefer); ok {
			return p.Input
		}
		return n
	})
	algebra.Walk(core, func(n algebra.Node) bool {
		if p, ok := n.(*algebra.Prefer); ok {
			prefers = append(prefers, p)
		}
		return true
	})

	// Execute the non-preference part as one native query.
	rnp, err := e.Materialize(qnp)
	if err != nil {
		return nil, err
	}

	// Evaluate all prefer operators on R_NP, in place: R_NP is the
	// executor's own relation.
	cur := rnp
	for _, p := range prefers {
		// WithChildren (not a fresh literal) keeps the optimizer's cache
		// annotations on the rebuilt operator.
		// cur holds R_NP's cells whatever prefers ran: a prefer writes
		// only ⟨S,C⟩.
		node := p.WithChildren([]algebra.Node{e.temp(cur, "R_NP", qnp)})
		cur, err = e.drain(node)
		if err != nil {
			return nil, fmt.Errorf("ftp: evaluating %s on R_NP: %w", p.P.Label(), err)
		}
	}

	// Apply the filtering operators innermost-first.
	for i := len(filters) - 1; i >= 0; i-- {
		node := filters[i].WithChildren([]algebra.Node{&algebra.Values{Rel: cur, Label: "R_Q"}})
		cur, err = e.drain(node)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}
