package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ScratchAlias enforces the batch-path aliasing contract (DESIGN.md §10):
// a Batch's selection vector, the per-caller segScratch buffers, and
// projectArena tuples are reused across nextBatch calls, so values derived
// from them must not outlive the operator. Concretely:
//
//   - no store of a derived value into a struct field, except back into
//     the scratch fields themselves (Batch.Sel, segScratch.sel/.scores,
//     projectArena.buf);
//   - no send of a derived value on a channel;
//   - no returning a raw selection vector or scratch buffer (arena tuples
//     are exempt: handing them out wrapped in a Row is their purpose, and
//     their storage is stable for the query's lifetime).
//
// Derivation is tracked syntactically through parentheses, slicing,
// append-in-place and local variables. Escapes the contract permits
// knowingly are annotated on the offending line:
//
//	// prefdb:alias-ok <reason>
//
// The columnar segment store inverts the contract: its row views
// (Segment.Tuple and fields declared with a `prefdb:segment-view` marker)
// are the heap's sealed tuples, immutable shared storage, so aliasing them
// out zero-copy is exactly their purpose and none of the escape rules
// apply. What is forbidden for them is mutation — writing through a
// segment view corrupts every reader of the store and the heap — and the
// analyzer flags element assignments through one.
//
// Borrowed column vectors obey the same inverted contract (prefdb:col-view):
// the typed slices of a types.ColVec and a columnar Batch's Cols alias
// segment storage shared by concurrent queries (Segment.ColVecs fills them
// in, returning nothing). Kernels may hold and pass them freely — borrowing
// is the point of the direct-on-column path — but an element write through
// one corrupts the store, so the analyzer flags it. Sources are matched by
// type (types.ColVec fields, prel.Batch.Cols) and by fields declared with a
// `prefdb:col-view` marker.
var ScratchAlias = &Analyzer{
	Name: "scratchalias",
	Doc:  "selection vectors, segScratch buffers and arena tuples must not escape their operator without a copy; segment views and borrowed column vectors may escape but not be written through",
	Run:  runScratchAlias,
}

type trackKind int

const (
	trackNone trackKind = iota
	// trackScratch marks selection vectors and scratch buffers (strict:
	// no field store, send, or return).
	trackScratch
	// trackArena marks arena-backed tuples (no field store or send;
	// returning them inside rows is sanctioned).
	trackArena
	// trackSegView marks segment-store row views (`prefdb:segment-view`):
	// immutable shared storage that may escape freely but must never be
	// written through.
	trackSegView
	// trackColView marks borrowed column vectors (`prefdb:col-view`):
	// typed slices aliasing segment storage, same rule as segment views —
	// escape freely, never write through.
	trackColView
)

// isView reports whether k names shared read-only storage, exempt from the
// escape rules but protected against writes.
func isView(k trackKind) bool { return k == trackSegView || k == trackColView }

// blessedFields are the scratch fields a derived value may be stored back
// into, keyed by receiver type name.
var blessedFields = map[string]map[string]bool{
	"Batch":        {"Sel": true},
	"segScratch":   {"sel": true, "scores": true},
	"projectArena": {"buf": true},
}

func runScratchAlias(pass *Pass) error {
	// Flow-insensitive pre-pass: locals ever assigned from a tracked
	// expression are tracked everywhere in the package.
	tracked := map[types.Object]trackKind{}
	classify := func(e ast.Expr) trackKind { return classifyExpr(pass, tracked, e) }
	for changed := true; changed; { // fixpoint: chains of local assignments
		changed = false
		pass.WalkStack(func(n ast.Node, stack []ast.Node) {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return
			}
			for i, lhs := range assign.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				var obj types.Object
				if assign.Tok == token.DEFINE {
					obj = pass.TypesInfo.Defs[id]
				} else {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				if _, isVar := obj.(*types.Var); !isVar {
					continue
				}
				if k := classify(assign.Rhs[i]); k != trackNone && tracked[obj] < k {
					tracked[obj] = k
					changed = true
				}
			}
		})
	}

	pass.WalkStack(func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return
			}
			for i, lhs := range x.Lhs {
				// Writing through a segment view or a borrowed column
				// vector mutates storage every reader of the store shares.
				if idx, ok := lhs.(*ast.IndexExpr); ok {
					if k := classify(idx.X); isView(k) {
						if _, ok := pass.Marker(x.Pos(), "alias-ok"); ok {
							continue
						}
						if k == trackColView {
							pass.Reportf(x.Pos(),
								"borrowed column vector written through; column storage is shared by concurrent readers (prefdb:col-view)")
						} else {
							pass.Reportf(x.Pos(),
								"segment view written through; segment storage is immutable and shared (prefdb:segment-view)")
						}
						continue
					}
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				selection := pass.TypesInfo.Selections[sel]
				if selection == nil || selection.Kind() != types.FieldVal {
					continue
				}
				k := classify(x.Rhs[i])
				if k == trackNone {
					continue
				}
				if isView(k) {
					continue // shared views escape freely
				}
				recvName, _ := namedOf(selection.Recv())
				if blessedFields[recvName][sel.Sel.Name] {
					continue
				}
				if _, ok := pass.Marker(x.Pos(), "alias-ok"); ok {
					continue
				}
				pass.Reportf(x.Pos(),
					"%s stored into field %s.%s outlives the operator; copy it first (aliasing contract, DESIGN.md §10)",
					kindNoun(k), recvName, sel.Sel.Name)
			}
		case *ast.SendStmt:
			if k := classify(x.Value); k != trackNone && !isView(k) {
				if _, ok := pass.Marker(x.Pos(), "alias-ok"); ok {
					return
				}
				pass.Reportf(x.Pos(), "%s sent on a channel escapes the operator; copy it first", kindNoun(k))
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if k := classify(res); k == trackScratch {
					if _, ok := pass.Marker(x.Pos(), "alias-ok"); ok {
						continue
					}
					pass.Reportf(x.Pos(), "%s returned raw; the caller would alias reused scratch storage", kindNoun(k))
				}
			}
		}
	})
	return nil
}

func kindNoun(k trackKind) string {
	switch k {
	case trackArena:
		return "arena tuple"
	case trackSegView:
		return "segment view"
	case trackColView:
		return "borrowed column vector"
	}
	return "selection-vector/scratch slice"
}

// classifyExpr reports whether e derives from a tracked scratch source.
func classifyExpr(pass *Pass, tracked map[types.Object]trackKind, e ast.Expr) trackKind {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return classifyExpr(pass, tracked, x.X)
	case *ast.SliceExpr:
		return classifyExpr(pass, tracked, x.X)
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return tracked[obj]
		}
		return trackNone
	case *ast.SelectorExpr:
		selection := pass.TypesInfo.Selections[x]
		if selection == nil || selection.Kind() != types.FieldVal {
			return trackNone
		}
		recvName, recvPkg := namedOf(selection.Recv())
		switch {
		case recvName == "Batch" && recvPkg == "prel" && x.Sel.Name == "Sel":
			return trackScratch
		case recvName == "segScratch" && (x.Sel.Name == "sel" || x.Sel.Name == "scores"):
			return trackScratch
		// Every typed slice of a ColVec is a borrowed window of segment
		// storage, as is a columnar batch's vector set (prefdb:col-view).
		case recvName == "ColVec" && recvPkg == "types":
			return trackColView
		case recvName == "Batch" && recvPkg == "prel" && x.Sel.Name == "Cols":
			return trackColView
		}
		// Fields declared with a `prefdb:segment-view` or `prefdb:col-view`
		// marker hand out shared storage (only visible when the declaring
		// package is the one under analysis — cross-package reads go
		// through the type- and accessor-based matches above and below).
		if obj := selection.Obj(); obj != nil {
			if _, ok := pass.Marker(obj.Pos(), "segment-view"); ok {
				return trackSegView
			}
			if _, ok := pass.Marker(obj.Pos(), "col-view"); ok {
				return trackColView
			}
		}
		return trackNone
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			// append writes into its first argument's storage; the result
			// aliases it (element spreads of tracked slices copy values and
			// are therefore fine).
			return classifyExpr(pass, tracked, x.Args[0])
		}
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "tuple" {
			if recvName, _ := NamedType(pass.TypesInfo, sel.X); recvName == "projectArena" {
				return trackArena
			}
		}
		// Segment.Tuple hands out a shared immutable row view, a sealed
		// heap tuple (`prefdb:segment-view`).
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Tuple" {
			if recvName, _ := NamedType(pass.TypesInfo, sel.X); recvName == "Segment" {
				return trackSegView
			}
		}
		return trackNone
	case *ast.IndexExpr:
		// Indexing a shared-view container (the marked tuples field, a
		// batch's Cols) yields another shared view; other tracked kinds
		// index to scalars, which copy.
		if k := classifyExpr(pass, tracked, x.X); isView(k) {
			return k
		}
		return trackNone
	default:
		return trackNone
	}
}
