package algebra

import (
	"fmt"

	"prefdb/internal/catalog"
	"prefdb/internal/expr"
	"prefdb/internal/schema"
	"prefdb/internal/types"
)

// Resolver computes and validates the output schema of every plan node
// against a catalog and function registry. It is the semantic-analysis pass
// shared by the planner, optimizer, and execution engines.
type Resolver struct {
	Catalog *catalog.Catalog
	Funcs   *expr.Registry
}

// Resolve returns the output schema of n, validating column references,
// condition types, and union compatibility along the way.
func (r *Resolver) Resolve(n Node) (*schema.Schema, error) {
	switch x := n.(type) {
	case *Scan:
		t, err := r.Catalog.Table(x.Table)
		if err != nil {
			return nil, err
		}
		return t.Schema().Rename(x.AliasName()), nil

	case *Select:
		in, err := r.Resolve(x.Input)
		if err != nil {
			return nil, err
		}
		if _, err := expr.CompileCondition(x.Cond, in, r.Funcs); err != nil {
			return nil, fmt.Errorf("in %s: %w", x, err)
		}
		return in, nil

	case *Project:
		in, err := r.Resolve(x.Input)
		if err != nil {
			return nil, err
		}
		return project(x, in, x.Cols)

	case *Join:
		l, err := r.Resolve(x.Left)
		if err != nil {
			return nil, err
		}
		rt, err := r.Resolve(x.Right)
		if err != nil {
			return nil, err
		}
		out := l.Concat(rt)
		if x.Cond != nil {
			if _, err := expr.CompileCondition(x.Cond, out, r.Funcs); err != nil {
				return nil, fmt.Errorf("in %s: %w", x, err)
			}
		}
		if x.Cols == nil {
			return out, nil
		}
		return project(x, out, x.Cols)

	case *Set:
		l, err := r.Resolve(x.Left)
		if err != nil {
			return nil, err
		}
		rt, err := r.Resolve(x.Right)
		if err != nil {
			return nil, err
		}
		if !l.EqualLayout(rt) {
			return nil, fmt.Errorf("algebra: %s inputs are not union-compatible: %s vs %s", x.Op, l, rt)
		}
		return l, nil

	case *Prefer:
		in, err := r.Resolve(x.Input)
		if err != nil {
			return nil, err
		}
		if err := x.P.Validate(); err != nil {
			return nil, err
		}
		if _, err := expr.CompileCondition(x.P.Cond, in, r.Funcs); err != nil {
			return nil, fmt.Errorf("in %s (conditional part): %w", x, err)
		}
		if _, err := expr.Compile(x.P.Score, in, r.Funcs); err != nil {
			return nil, fmt.Errorf("in %s (scoring part): %w", x, err)
		}
		return in, nil

	case *TopK:
		if x.K <= 0 {
			return nil, fmt.Errorf("algebra: Top(%d) requires k > 0", x.K)
		}
		return r.Resolve(x.Input)

	case *Threshold:
		if !x.Op.IsComparison() {
			return nil, fmt.Errorf("algebra: Threshold operator %s is not a comparison", x.Op)
		}
		return r.Resolve(x.Input)

	case *Skyline:
		in, err := r.Resolve(x.Input)
		if err != nil {
			return nil, err
		}
		for _, d := range x.Dims {
			idx, err := in.IndexOf(d.Col.Table, d.Col.Name)
			if err != nil {
				return nil, fmt.Errorf("in %s: %w", x, err)
			}
			k := in.Columns[idx].Kind
			if k != types.KindInt && k != types.KindFloat {
				return nil, fmt.Errorf("algebra: skyline dimension %s must be numeric, got %s", d.Col, k)
			}
		}
		return in, nil

	case *Rank:
		return r.Resolve(x.Input)

	case *OrderBy:
		in, err := r.Resolve(x.Input)
		if err != nil {
			return nil, err
		}
		if len(x.Keys) == 0 {
			return nil, fmt.Errorf("algebra: OrderBy requires at least one key")
		}
		for _, k := range x.Keys {
			if _, err := in.IndexOf(k.Col.Table, k.Col.Name); err != nil {
				return nil, fmt.Errorf("in %s: %w", x, err)
			}
		}
		return in, nil

	case *Limit:
		if x.N < 0 || x.Offset < 0 {
			return nil, fmt.Errorf("algebra: Limit requires non-negative count and offset")
		}
		return r.Resolve(x.Input)

	case *Values:
		return x.Rel.Schema, nil

	case nil:
		return nil, fmt.Errorf("algebra: nil plan node")

	default:
		return nil, fmt.Errorf("algebra: unknown node type %T", n)
	}
}

// project narrows in to cols, the column list of operator n.
func project(n Node, in *schema.Schema, cols []expr.Col) (*schema.Schema, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		idx, err := in.IndexOf(c.Table, c.Name)
		if err != nil {
			return nil, fmt.Errorf("in %s: %w", n, err)
		}
		ords[i] = idx
	}
	return in.Project(ords), nil
}
