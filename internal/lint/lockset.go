package lint

import (
	"go/ast"
	"go/types"
)

// LockSet is the flow-sensitive lock discipline analyzer. It replaces the
// flow-insensitive guarded-by heuristic from PR 5 ("the enclosing function
// contains a Lock() call somewhere") with a per-path lock-set dataflow:
//
//   - every access to a prefdb:guarded-by field must happen while the
//     guarding mutex is in the held set on that path;
//   - locking a mutex already held (double-lock) and unlocking one not
//     held are reported, as are RLock/Unlock pairing mismatches;
//   - a lock still held at return is a leak unless the function is
//     annotated prefdb:lock-escapes <mu> (it intentionally hands the lock
//     to the caller, e.g. wire.Client.stream);
//   - a loop iteration must be lock-neutral (defer-in-loop is the classic
//     violation);
//   - blocking drains (WaitGroup.Wait, catalog Table.Stats /
//     ColStore) must not run while any mutex is held.
//
// Annotation grammar (DESIGN.md §16):
//
//	// prefdb:locked <path>       function runs with <path> already held
//	// prefdb:lock-escapes <path> function may return still holding <path>
//	// prefdb:lockset-ok <why>    per-line suppression
//
// Unexported same-package helpers get one-level summaries, so the
// lock-in-one-function / unlock-in-another idiom (clientRows.finish) is
// analyzed precisely instead of suppressed.
var LockSet = &Analyzer{
	Name: "lockset",
	Doc:  "flow-sensitive lock-set dataflow: guarded-by enforcement on every path, double-lock, unlock-without-lock, leaked locks at return, lock-held drains",
	Run:  runLockSet,
}

func runLockSet(pass *Pass) error {
	guards := collectGuards(pass)
	sums := buildLockSummaries(pass, guards)
	fl := &lockFlow{
		pass:      pass,
		guards:    guards,
		summaries: sums,
		pkgName:   pass.Pkg.Name(),
	}
	fl.analyzePackage()
	return nil
}

// collectGuards maps every prefdb:guarded-by annotated field to the
// types.Object of its guarding sibling mutex field.
func collectGuards(pass *Pass) map[types.Object]types.Object {
	guards := map[types.Object]types.Object{}
	pass.WalkStack(func(n ast.Node, stack []ast.Node) {
		st, ok := n.(*ast.StructType)
		if !ok {
			return
		}
		for _, field := range st.Fields.List {
			mu, ok := pass.Marker(field.Pos(), "guarded-by", field.Doc, field.Comment)
			if !ok || mu == "" {
				continue
			}
			var muObj types.Object
			for _, sibling := range st.Fields.List {
				for _, name := range sibling.Names {
					if name.Name == mu {
						muObj = pass.TypesInfo.Defs[name]
					}
				}
			}
			if muObj == nil {
				pass.Reportf(field.Pos(), "prefdb:guarded-by names %q, which is not a sibling field of the struct", mu)
				continue
			}
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					guards[obj] = muObj
				}
			}
		}
	})
	return guards
}
