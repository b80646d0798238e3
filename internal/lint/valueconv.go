package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ValueConv enforces the value-comparison conventions of the hashing and
// scoring hot paths (DESIGN.md §11):
//
//   - no operand whose type contains types.Value (the Value itself, a
//     struct field, an array element) may be compared with == or != —
//     struct equality compares a TEXT value's string-data address, not
//     its bytes, and the raw payload words of numerics (an INT never
//     equals an integral FLOAT, NaN's bits equal themselves); use
//     Value.Equal or types.TupleEqual.
//   - map keys must not contain types.Value for the same reason (and
//     because hashing the struct bypasses the numeric normalization of
//     Value.Hash); key by Value.Hash/HashTuple with a TupleEqual confirm,
//     the way the hash join and set operations do.
//   - an expr.Func literal that provides the vectorized Floats kernel must
//     also provide the scalar Eval — the kernel convention pairs them, and
//     the batch≡row equivalence suite assumes Eval is authoritative.
//
// The defining package (types) is exempt: the implementation of Equal,
// Hash and Compare legitimately inspects payloads. Deliberate exceptions
// elsewhere carry `// prefdb:valueconv-ok <reason>` on the line.
var ValueConv = &Analyzer{
	Name: "valueconv",
	Doc:  "no ==/map-key use of types.Value (use TupleEqual/Value.Hash); Func.Floats requires Func.Eval",
	Run:  runValueConv,
}

func runValueConv(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "types" {
		return nil
	}
	pass.WalkStack(func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.EQL && x.Op != token.NEQ {
				return
			}
			if isNil(pass, x.X) || isNil(pass, x.Y) ||
				!operandHasValue(pass, x.X) && !operandHasValue(pass, x.Y) {
				return
			}
			if _, ok := pass.Marker(x.Pos(), "valueconv-ok"); ok {
				return
			}
			pass.Reportf(x.Pos(),
				"types.Value compared with %s; use Value.Equal/types.TupleEqual (struct equality compares string addresses and numeric kinds)", x.Op)
		case *ast.MapType:
			tv, ok := pass.TypesInfo.Types[x.Key]
			if !ok || !containsValueType(tv.Type, 0) {
				return
			}
			if _, ok := pass.Marker(x.Pos(), "valueconv-ok"); ok {
				return
			}
			pass.Reportf(x.Pos(),
				"map keyed by types.Value; key by Value.Hash/HashTuple with a TupleEqual confirm instead")
		case *ast.CompositeLit:
			name, pkg := NamedType(pass.TypesInfo, x)
			if name != "Func" || pkg != "expr" {
				return
			}
			hasEval, hasFloats := false, false
			for _, elt := range x.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					switch key.Name {
					case "Eval":
						hasEval = true
					case "Floats":
						hasFloats = true
					}
				}
			}
			if hasFloats && !hasEval {
				pass.Reportf(x.Pos(),
					"expr.Func sets the Floats batch kernel without a scalar Eval; the kernel convention requires both paths")
			}
		}
	})
	return nil
}

// operandHasValue reports whether the operand's static type contains
// types.Value.
func operandHasValue(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && containsValueType(tv.Type, 0)
}

// isNil reports whether e is the untyped nil: a *types.Value compared
// with nil is a presence test, not struct equality.
func isNil(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// containsValueType reports whether t contains types.Value anywhere a map
// key or a == could reach it (direct, array element, struct field).
func containsValueType(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	if name, pkg := namedOf(t); name == "Value" && pkg == "types" {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		return containsValueType(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsValueType(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}
