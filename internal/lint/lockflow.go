// Flow-sensitive lock-set dataflow over function bodies, the engine under
// the lockset and lockorder analyzers. The interpreter walks each function
// structurally, carrying the set of held mutexes: branches fork the state
// and merge by intersection (must-hold semantics), deferred unlocks are
// marked for release at function exit, loops are checked for net lock
// acquisition or release per iteration, and `go` bodies start from an
// empty set (a new goroutine inherits no locks). One-level summaries of
// unexported same-package helpers (what they require, release and acquire)
// let the analysis see through the lock-helper idiom without becoming
// inter-procedural in general.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockID identifies one mutex during flow analysis: the types.Object of
// the mutex field or variable plus the rendered base expression, so two
// fields of the same type on different instances ("a.mu" vs "b.mu") stay
// distinct while "r.c.mu" and "c.mu" reaching the same field object can
// still be matched by object when needed.
type lockID struct {
	obj  types.Object
	base string
}

// heldInfo records how one held lock was acquired.
type heldInfo struct {
	pos      token.Pos
	name     string // display form, e.g. "t.colMu"
	canon    string // global name "pkg.Type.field" / "pkg.var"; "" for locals
	rlock    bool
	deferred bool // release scheduled by a defer
	seeded   bool // held at entry per prefdb:locked
	// acqObj carries the mutex object when the info lives in a summary's
	// acquires list (the lockID is reconstructed at the call site).
	acqObj types.Object
}

// lockState is the set of locks held on the current path.
type lockState struct {
	held map[lockID]heldInfo
}

func newLockState() *lockState { return &lockState{held: map[lockID]heldInfo{}} }

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// findObj locates a held lock by mutex object identity, ignoring the base
// expression (r.c.mu and c.mu are the same lock when c is shared).
func (s *lockState) findObj(obj types.Object) (lockID, bool) {
	if obj == nil {
		return lockID{}, false
	}
	for k := range s.held {
		if k.obj == obj {
			return k, true
		}
	}
	return lockID{}, false
}

func (s *lockState) holdsObj(obj types.Object) bool {
	_, ok := s.findObj(obj)
	return ok
}

// list returns the held locks sorted by display name, for deterministic
// diagnostics and hook payloads.
func (s *lockState) list() []heldInfo {
	out := make([]heldInfo, 0, len(s.held))
	for _, v := range s.held {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// lockSummary is the one-level effect summary of an unexported helper.
type lockSummary struct {
	requires []types.Object // locks that must be held at entry (prefdb:locked)
	releases []types.Object // entry locks absent on every return path
	acquires []heldInfo     // locks held on every return path but not at entry
}

// lockHooks lets lockorder observe acquisitions and calls during a quiet
// flow run without duplicating the interpreter.
type lockHooks struct {
	acquire func(funcKey string, held []heldInfo, canon string, pos token.Pos)
	call    func(funcKey string, held []heldInfo, callee *types.Func, pos token.Pos)
}

type callMode int

const (
	callNormal callMode = iota
	callDefer
)

// lockFlow is one flow-analysis run over a package.
type lockFlow struct {
	pass      *Pass
	guards    map[types.Object]types.Object // guarded field -> mutex object
	summaries map[types.Object]*lockSummary
	quiet     bool // collect facts only, no diagnostics
	hooks     *lockHooks
	pkgName   string

	// Per-function state.
	funcKey     string
	escapes     map[types.Object]bool // prefdb:lock-escapes targets
	escapeNames map[string]bool
	exits       []map[lockID]heldInfo
	goSeq       int
}

// analyzePackage runs the flow interpreter over every function body.
func (fl *lockFlow) analyzePackage() {
	for _, f := range fl.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fl.analyzeDecl(fd)
		}
	}
}

func (fl *lockFlow) analyzeDecl(fd *ast.FuncDecl) {
	fl.funcKey = fl.declKey(fd)
	fl.exits = nil
	fl.goSeq = 0
	fl.escapes = map[types.Object]bool{}
	fl.escapeNames = map[string]bool{}
	st := newLockState()
	if args, ok := fl.pass.Marker(fd.Pos(), "locked", fd.Doc); ok {
		for _, path := range strings.Fields(args) {
			id, name, canon, ok := fl.resolveLockPath(fd, path)
			if !ok {
				if !fl.quiet {
					fl.pass.Reportf(fd.Pos(), "prefdb:locked names %q, which does not resolve to a mutex reachable from the parameters", path)
				}
				continue
			}
			st.held[id] = heldInfo{pos: fd.Pos(), name: name, canon: canon, seeded: true}
		}
	}
	if args, ok := fl.pass.Marker(fd.Pos(), "lock-escapes", fd.Doc); ok {
		for _, path := range strings.Fields(args) {
			fl.escapeNames[path] = true
			if id, _, _, ok := fl.resolveLockPath(fd, path); ok && id.obj != nil {
				fl.escapes[id.obj] = true
			}
		}
	}
	if !fl.block(fd.Body.List, st) {
		fl.ret(fd.Body.Rbrace, st)
	}
}

// declKey names a function for cross-package lockorder bookkeeping,
// matching funcObjKey for the same declaration.
func (fl *lockFlow) declKey(fd *ast.FuncDecl) string {
	if obj, ok := fl.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return funcObjKey(obj)
	}
	return fl.pkgName + "." + fd.Name.Name
}

// funcObjKey renders pkg.Type.method or pkg.func for a function object.
func funcObjKey(f *types.Func) string {
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Name()
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rt, _ := namedOf(sig.Recv().Type()); rt != "" {
			return pkg + "." + rt + "." + f.Name()
		}
	}
	return pkg + "." + f.Name()
}

// resolveLockPath resolves an annotation path like "mu" or "c.mu" against
// the function's receiver and parameters to a lock identity. A single
// name may be a receiver field, a parameter, or a package-level mutex.
func (fl *lockFlow) resolveLockPath(fd *ast.FuncDecl, path string) (lockID, string, string, bool) {
	parts := strings.Split(path, ".")
	info := fl.pass.TypesInfo

	var roots []*ast.Ident
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			roots = append(roots, f.Names...)
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			roots = append(roots, f.Names...)
		}
	}

	walk := func(rootName string, rootType types.Type, fields []string) (lockID, string, string, bool) {
		t := rootType
		base := rootName
		for i, name := range fields {
			v := fieldOf(t, name)
			if v == nil {
				return lockID{}, "", "", false
			}
			if i == len(fields)-1 {
				canon := ""
				if ot, op := namedOf(t); ot != "" {
					canon = op + "." + ot + "." + name
				}
				return lockID{obj: v, base: base}, base + "." + name, canon, true
			}
			base += "." + name
			t = v.Type()
		}
		return lockID{}, "", "", false
	}

	// parts[0] names a receiver or parameter directly.
	if len(parts) > 1 {
		for _, r := range roots {
			if r.Name == parts[0] {
				if obj := info.Defs[r]; obj != nil {
					return walk(r.Name, obj.Type(), parts[1:])
				}
			}
		}
	}
	// The whole path is fields of the receiver ("mu", "c.mu" via field c).
	if fd.Recv != nil {
		for _, f := range fd.Recv.List {
			for _, r := range f.Names {
				if obj := info.Defs[r]; obj != nil {
					if id, name, canon, ok := walk(r.Name, obj.Type(), parts); ok {
						return id, name, canon, true
					}
				}
			}
		}
	}
	// A package-level mutex variable.
	if len(parts) == 1 {
		if obj := fl.pass.Pkg.Scope().Lookup(parts[0]); obj != nil {
			return lockID{obj: obj}, parts[0], fl.pkgName + "." + parts[0], true
		}
	}
	return lockID{}, "", "", false
}

// fieldOf finds a struct field by name after stripping pointers/aliases.
func fieldOf(t types.Type, name string) *types.Var {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			t = x.Underlying()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Struct:
			for i := 0; i < x.NumFields(); i++ {
				if f := x.Field(i); f.Name() == name {
					return f
				}
			}
			return nil
		default:
			return nil
		}
	}
}

// report emits a diagnostic unless the run is quiet or the line carries a
// prefdb:lockset-ok suppression.
func (fl *lockFlow) report(pos token.Pos, format string, args ...any) {
	if fl.quiet {
		return
	}
	if _, ok := fl.pass.Marker(pos, "lockset-ok"); ok {
		return
	}
	fl.pass.Reportf(pos, format, args...)
}

// block interprets a statement list; true means every path terminated.
func (fl *lockFlow) block(list []ast.Stmt, st *lockState) bool {
	for _, s := range list {
		if fl.stmt(s, st) {
			return true
		}
	}
	return false
}

// stmt interprets one statement against st, returning true when control
// cannot fall through to the next statement (return/break/continue/goto).
func (fl *lockFlow) stmt(s ast.Stmt, st *lockState) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return fl.block(s.List, st)
	case *ast.ExprStmt:
		fl.expr(s.X, st)
	case *ast.SendStmt:
		fl.expr(s.Chan, st)
		fl.expr(s.Value, st)
	case *ast.IncDecStmt:
		fl.expr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			fl.expr(e, st)
		}
		for _, e := range s.Lhs {
			fl.expr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						fl.expr(e, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		fl.deferCall(s.Call, st)
	case *ast.GoStmt:
		fl.goStmt(s, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			fl.expr(e, st)
		}
		fl.ret(s.Pos(), st)
		return true
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough end the current path; the loop
		// join below conservatively intersects with the pre-loop state.
		return true
	case *ast.LabeledStmt:
		return fl.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			fl.stmt(s.Init, st)
		}
		fl.expr(s.Cond, st)
		var branches []*lockState
		thenSt := st.clone()
		if !fl.stmt(s.Body, thenSt) {
			branches = append(branches, thenSt)
		}
		elseSt := st.clone()
		if s.Else != nil {
			if !fl.stmt(s.Else, elseSt) {
				branches = append(branches, elseSt)
			}
		} else {
			branches = append(branches, elseSt)
		}
		return fl.mergeInto(st, branches)
	case *ast.ForStmt:
		if s.Init != nil {
			fl.stmt(s.Init, st)
		}
		if s.Cond != nil {
			fl.expr(s.Cond, st)
		}
		fl.loop(s.Pos(), s.Body, s.Post, st)
	case *ast.RangeStmt:
		fl.expr(s.X, st)
		fl.loop(s.Pos(), s.Body, nil, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			fl.stmt(s.Init, st)
		}
		if s.Tag != nil {
			fl.expr(s.Tag, st)
		}
		return fl.clauses(s.Body.List, st, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			fl.stmt(s.Init, st)
		}
		fl.stmt(s.Assign, st)
		return fl.clauses(s.Body.List, st, true)
	case *ast.SelectStmt:
		if len(s.Body.List) == 0 {
			return true // select{} blocks forever
		}
		// A select without default still runs exactly one of its cases.
		return fl.clauses(s.Body.List, st, false)
	}
	return false
}

// clauses interprets switch/select cases as parallel branches. With
// implicitDefault, a missing default contributes the unmodified pre-state.
func (fl *lockFlow) clauses(list []ast.Stmt, st *lockState, implicitDefault bool) bool {
	var branches []*lockState
	hasDefault := false
	for _, c := range list {
		cs := st.clone()
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				fl.expr(e, cs)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				fl.stmt(c.Comm, cs)
			}
			body = c.Body
		}
		if !fl.block(body, cs) {
			branches = append(branches, cs)
		}
	}
	if implicitDefault && !hasDefault {
		branches = append(branches, st.clone())
	}
	return fl.mergeInto(st, branches)
}

// mergeInto joins the live branch states into st by intersection; true
// when no branch falls through.
func (fl *lockFlow) mergeInto(st *lockState, branches []*lockState) bool {
	if len(branches) == 0 {
		return true
	}
	st.held = branches[0].held
	for _, b := range branches[1:] {
		for k, info := range st.held {
			other, ok := b.held[k]
			if !ok {
				delete(st.held, k)
				continue
			}
			if other.deferred && !info.deferred {
				info.deferred = true
				st.held[k] = info
			}
		}
	}
	return false
}

// loop interprets a loop body once and checks that an iteration is
// lock-neutral: a lock acquired in the body and still held at its end
// double-locks on the next iteration, and releasing a lock that was held
// at loop entry unlocks an unheld mutex on the second pass.
func (fl *lockFlow) loop(loopPos token.Pos, body *ast.BlockStmt, post ast.Stmt, st *lockState) {
	pre := st.clone()
	term := fl.stmt(body, st)
	if !term && post != nil {
		fl.stmt(post, st)
	}
	if term {
		// The body never completes an iteration (it returns or breaks on
		// every path); the loop runs at most once and falls out with the
		// entry state.
		st.held = pre.held
		return
	}
	for k, info := range st.held {
		if _, was := pre.held[k]; was {
			continue
		}
		if info.deferred {
			fl.report(info.pos, "%s is locked in a loop body with only a deferred unlock; defers run at function exit, so the next iteration double-locks it", info.name)
		} else {
			fl.report(info.pos, "%s is still held at the end of the loop body; the next iteration would double-lock it", info.name)
		}
	}
	for k, info := range pre.held {
		if _, still := st.held[k]; still || info.deferred {
			continue
		}
		fl.report(loopPos, "%s held at loop entry is released inside the loop body; a second iteration would unlock an unheld mutex", info.name)
	}
	// After the loop: only locks held both before and after an iteration.
	for k := range st.held {
		if _, ok := pre.held[k]; !ok {
			delete(st.held, k)
		}
	}
}

// ret records an exit snapshot (deferred releases applied) and flags
// locks leaking out of the function.
func (fl *lockFlow) ret(pos token.Pos, st *lockState) {
	exit := map[lockID]heldInfo{}
	for k, info := range st.held {
		if info.deferred {
			continue
		}
		exit[k] = info
	}
	fl.exits = append(fl.exits, exit)
	if fl.quiet {
		return
	}
	for k, info := range exit {
		if info.seeded || fl.escapes[k.obj] || fl.escapeNames[info.name] {
			continue
		}
		fl.report(pos, "%s is still held at return (locked at %s); unlock on every path, defer the unlock, or annotate the function prefdb:lock-escapes %s",
			info.name, fl.pass.Fset.Position(info.pos), lastComponent(info.name))
	}
}

func lastComponent(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// expr scans an expression for lock operations, calls, guarded-field
// accesses and function literals.
func (fl *lockFlow) expr(e ast.Expr, st *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal passed as a callback (or stored) is assumed to run
			// synchronously under the current lock set; its state changes
			// do not flow back.
			fl.subFunc(n, st.clone(), fl.funcKey)
			return false
		case *ast.CallExpr:
			fl.call(n, st, callNormal)
			return false
		case *ast.SelectorExpr:
			fl.fieldAccess(n, st)
			return true
		}
		return true
	})
}

// subFunc interprets a function literal body with its own exit tracking.
func (fl *lockFlow) subFunc(lit *ast.FuncLit, st *lockState, key string) {
	savedExits, savedKey := fl.exits, fl.funcKey
	fl.exits, fl.funcKey = nil, key
	if !fl.block(lit.Body.List, st) {
		fl.ret(lit.Body.Rbrace, st)
	}
	fl.exits, fl.funcKey = savedExits, savedKey
}

// fieldAccess enforces prefdb:guarded-by at one selector.
func (fl *lockFlow) fieldAccess(sel *ast.SelectorExpr, st *lockState) {
	if fl.quiet || len(fl.guards) == 0 {
		return
	}
	selection := fl.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	guard, ok := fl.guards[selection.Obj()]
	if !ok || st.holdsObj(guard) {
		return
	}
	fl.report(sel.Pos(), "access to %s.%s without holding %s (prefdb:guarded-by %s)",
		typeNameOf(selection), sel.Sel.Name, guard.Name(), guard.Name())
}

// goStmt evaluates the spawn's arguments in the current goroutine and the
// spawned body with an empty lock set (locks do not cross goroutines).
func (fl *lockFlow) goStmt(g *ast.GoStmt, st *lockState) {
	for _, a := range g.Call.Args {
		fl.expr(a, st)
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		fl.goSeq++
		fl.subFunc(lit, newLockState(), fmt.Sprintf("%s#go%d", fl.funcKey, fl.goSeq))
	} else {
		fl.expr(g.Call.Fun, st)
	}
}

// deferCall interprets `defer f(...)`: unlocks become exit releases, a
// deferred literal runs against a copy of the current set, and helper
// summaries apply their releases at exit.
func (fl *lockFlow) deferCall(call *ast.CallExpr, st *lockState) {
	for _, a := range call.Args {
		fl.expr(a, st)
	}
	if op, id, name, _, ok := fl.lockOp(call); ok {
		switch op {
		case "Unlock", "RUnlock":
			k := id
			if _, held := st.held[k]; !held {
				var found bool
				if k, found = st.findObj(id.obj); !found {
					fl.report(call.Pos(), "deferred %s of %s, which is not held at the defer statement", op, name)
					return
				}
			}
			info := st.held[k]
			info.deferred = true
			st.held[k] = info
		default:
			fl.report(call.Pos(), "deferred %s of %s; acquiring a lock at function exit is almost certainly a bug", op, name)
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		sub := st.clone()
		fl.subFunc(lit, sub, fl.funcKey)
		// Locks the deferred literal released become exit releases.
		for k, info := range st.held {
			if _, still := sub.held[k]; !still {
				info.deferred = true
				st.held[k] = info
			}
		}
		return
	}
	if callee := calleeOf(fl.pass, call); callee != nil {
		if sum := fl.summaries[callee]; sum != nil {
			for _, rel := range sum.releases {
				if k, ok := st.findObj(rel); ok {
					info := st.held[k]
					info.deferred = true
					st.held[k] = info
				}
			}
		}
	}
}

// call interprets one call expression: lock operations, blocking drains,
// helper summaries, then the nested expressions.
func (fl *lockFlow) call(call *ast.CallExpr, st *lockState, mode callMode) {
	if op, id, name, canon, ok := fl.lockOp(call); ok {
		fl.applyLock(op, id, name, canon, call.Pos(), st)
		return
	}
	if desc, ok := fl.drainCall(call); ok && mode == callNormal && len(st.held) > 0 {
		held := st.list()
		fl.report(call.Pos(), "blocking %s while holding %s; a drain can wait on work that needs the same lock — release it first", desc, held[0].name)
	}
	callee := calleeOf(fl.pass, call)
	if callee != nil && fl.hooks != nil && fl.hooks.call != nil {
		fl.hooks.call(fl.funcKey, st.list(), callee, call.Pos())
	}
	if callee != nil {
		if sum := fl.summaries[callee]; sum != nil {
			for _, req := range sum.requires {
				if !st.holdsObj(req) {
					fl.report(call.Pos(), "call to %s requires %s held at entry (prefdb:locked)", callee.Name(), req.Name())
				}
			}
			for _, rel := range sum.releases {
				if k, ok := st.findObj(rel); ok {
					delete(st.held, k)
				}
			}
			for _, acq := range sum.acquires {
				if acq.acqObj == nil || st.holdsObj(acq.acqObj) {
					continue
				}
				st.held[lockID{obj: acq.acqObj}] = heldInfo{pos: call.Pos(), name: acq.name, canon: acq.canon}
			}
		}
	}
	fl.expr(call.Fun, st)
	for _, a := range call.Args {
		fl.expr(a, st)
	}
}

// applyLock transitions the state for one Lock/Unlock/RLock/RUnlock.
func (fl *lockFlow) applyLock(op string, id lockID, name, canon string, pos token.Pos, st *lockState) {
	switch op {
	case "Lock", "RLock":
		if fl.hooks != nil && fl.hooks.acquire != nil {
			fl.hooks.acquire(fl.funcKey, st.list(), canon, pos)
		}
		if prev, dup := st.held[id]; dup {
			fl.report(pos, "%s is locked again while already held (acquired at %s); double-lock self-deadlocks",
				name, fl.pass.Fset.Position(prev.pos))
		}
		st.held[id] = heldInfo{pos: pos, name: name, canon: canon, rlock: op == "RLock"}
	case "Unlock", "RUnlock":
		k := id
		info, held := st.held[k]
		if !held {
			var found bool
			if k, found = st.findObj(id.obj); !found {
				fl.report(pos, "%s of %s, which is not held on this path; unlocking an unheld mutex panics", op, name)
				return
			}
			info = st.held[k]
		}
		if info.rlock != (op == "RUnlock") {
			if info.rlock {
				fl.report(pos, "%s was acquired with RLock but released with Unlock", name)
			} else {
				fl.report(pos, "%s was acquired with Lock but released with RUnlock", name)
			}
		}
		delete(st.held, k)
	}
}

// lockOp classifies mu.Lock/Unlock/RLock/RUnlock calls and identifies the
// mutex. Matching is by type name (Mutex/RWMutex) so fixtures with
// stand-in types behave like sync.
func (fl *lockFlow) lockOp(call *ast.CallExpr) (op string, id lockID, name, canon string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return
	}
	tn, _ := NamedType(fl.pass.TypesInfo, sel.X)
	if tn != "Mutex" && tn != "RWMutex" {
		return
	}
	op = sel.Sel.Name
	info := fl.pass.TypesInfo
	switch x := sel.X.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		canon := ""
		if v, isVar := obj.(*types.Var); isVar && !v.IsField() && v.Parent() == fl.pass.Pkg.Scope() {
			canon = fl.pkgName + "." + v.Name()
		}
		return op, lockID{obj: obj}, x.Name, canon, true
	case *ast.SelectorExpr:
		var obj types.Object
		canon := ""
		if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			obj = s.Obj()
			if rt, rp := namedOf(s.Recv()); rt != "" {
				canon = rp + "." + rt + "." + x.Sel.Name
			}
		} else if u := info.Uses[x.Sel]; u != nil {
			obj = u
			if pi, isIdent := x.X.(*ast.Ident); isIdent {
				if pn, isPkg := info.Uses[pi].(*types.PkgName); isPkg {
					canon = pn.Imported().Name() + "." + x.Sel.Name
				}
			}
		}
		base := renderExpr(x.X)
		return op, lockID{obj: obj, base: base}, base + "." + x.Sel.Name, canon, true
	default:
		base := renderExpr(sel.X)
		return op, lockID{base: base}, base, "", true
	}
}

// drainCall recognizes blocking waits that must not run under a mutex:
// WaitGroup.Wait and the catalog's full-table Stats and ColStore builds.
func (fl *lockFlow) drainCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tn, _ := NamedType(fl.pass.TypesInfo, sel.X)
	switch sel.Sel.Name {
	case "Wait":
		if tn == "WaitGroup" {
			return "WaitGroup.Wait", true
		}
	case "Stats":
		if tn == "Table" {
			return "Table.Stats (lazy full-table analyze)", true
		}
	case "ColStore":
		if tn == "Table" {
			return "Table.ColStore (synchronous full-table build)", true
		}
	}
	return "", false
}

// calleeOf resolves a call's static target function, nil for interface
// methods, function values and builtins.
func calleeOf(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if s := pass.TypesInfo.Selections[fun]; s != nil {
			if s.Kind() == types.MethodVal {
				if f, ok := s.Obj().(*types.Func); ok {
					// Interface dispatch has no body to summarize.
					if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
						return nil
					}
					return f
				}
			}
			return nil
		}
		if f, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// renderExpr prints the base expression of a lock for identity and
// diagnostics.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.StarExpr:
		return "*" + renderExpr(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + renderExpr(e.X)
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "()"
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[_]"
	default:
		return "?"
	}
}

// buildLockSummaries computes one-level effect summaries for unexported
// functions: what prefdb:locked requires, which entry locks are released
// on every path, and which new locks are held on every path out. The
// summary pass runs quiet and without nested summaries, keeping the
// analysis strictly one level deep.
func buildLockSummaries(pass *Pass, guards map[types.Object]types.Object) map[types.Object]*lockSummary {
	sums := map[types.Object]*lockSummary{}
	fl := &lockFlow{pass: pass, guards: guards, quiet: true, pkgName: pass.Pkg.Name()}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.IsExported() {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fl.analyzeDecl(fd)

			// Seeds: the locks prefdb:locked put in the entry state.
			seeds := map[types.Object]bool{}
			var seedOrder []types.Object
			if args, hasMarker := pass.Marker(fd.Pos(), "locked", fd.Doc); hasMarker {
				for _, path := range strings.Fields(args) {
					if id, _, _, ok := fl.resolveLockPath(fd, path); ok && id.obj != nil {
						seeds[id.obj] = true
						seedOrder = append(seedOrder, id.obj)
					}
				}
			}
			// Merged exit: locks held on every return path.
			exit := map[types.Object]heldInfo{}
			if len(fl.exits) > 0 {
				for k, info := range fl.exits[0] {
					if k.obj != nil {
						exit[k.obj] = info
					}
				}
				for _, e := range fl.exits[1:] {
					byObj := map[types.Object]bool{}
					for k := range e {
						if k.obj != nil {
							byObj[k.obj] = true
						}
					}
					for o := range exit {
						if !byObj[o] {
							delete(exit, o)
						}
					}
				}
			}
			sum := &lockSummary{}
			for _, o := range seedOrder {
				sum.requires = append(sum.requires, o)
				if _, still := exit[o]; !still {
					sum.releases = append(sum.releases, o)
				}
			}
			for o, info := range exit {
				if seeds[o] {
					continue
				}
				sum.acquires = append(sum.acquires, heldInfo{name: info.name, canon: info.canon, acqObj: o})
			}
			sort.Slice(sum.acquires, func(i, j int) bool { return sum.acquires[i].name < sum.acquires[j].name })
			if len(sum.requires)+len(sum.releases)+len(sum.acquires) > 0 {
				sums[obj] = sum
			}
		}
	}
	return sums
}
