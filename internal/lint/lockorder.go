package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrderAnalyzer builds a lexical lock-acquisition graph over the
// package's named mutexes and flags cycles — the session-registry vs
// session-lock style deadlock where goroutine 1 holds A and wants B
// while goroutine 2 holds B and wants A. Mutex identity is the
// declaration: the struct field (`shard.mu`, `Node.shipsMu`) or the
// package-level variable, so every instance of a type shares one node,
// which is exactly the granularity a lock *hierarchy* is defined at.
//
// Edges come from two shapes, both tracked with mutexblock's lexical
// discipline (deferred Unlocks hold to end of function, branches fork
// the held set, goroutine bodies start clean):
//
//   - a direct Lock/RLock of B while A is held;
//   - a call to a same-package function that (transitively) acquires B
//     while A is held.
//
// A cycle means two call paths acquire the same mutexes in opposite
// orders; the fix is a documented hierarchy (always A before B) or
// narrowing one critical section. A self-edge — re-acquiring a mutex
// already held — is reported as a self-deadlock; the rare pattern of
// locking two *instances* behind one field (pairwise merges) needs a
// //dvfslint:allow lockorder directive stating the instance order.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "flag cycles in the mutex acquisition order graph (potential deadlocks)",
	Run:  runLockOrder,
}

// lockEdge is one observed acquisition: to was acquired (directly or
// via a call) while from was held.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
	via      string // callee name for call-induced edges, "" for direct
}

// lockGraph accumulates the package's acquisition facts.
type lockGraph struct {
	pass   *Pass
	labels map[types.Object]string
	edges  map[[2]types.Object]*lockEdge
	// acquires is each function's transitive may-acquire set, built to
	// a fixed point over the package call graph.
	acquires map[types.Object]map[types.Object]bool
	// calls maps each function to the same-package functions it calls.
	calls map[types.Object]map[types.Object]bool
	// pending are call sites made under held locks, resolved into
	// edges once the transitive acquire sets are stable.
	pending []pendingCall
	decls   map[types.Object]*ast.FuncDecl
}

type pendingCall struct {
	held   []types.Object
	callee types.Object
	pos    token.Pos
	name   string
}

func runLockOrder(pass *Pass) {
	g := &lockGraph{
		pass:     pass,
		labels:   map[types.Object]string{},
		edges:    map[[2]types.Object]*lockEdge{},
		acquires: map[types.Object]map[types.Object]bool{},
		calls:    map[types.Object]map[types.Object]bool{},
		decls:    map[types.Object]*ast.FuncDecl{},
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil {
				g.decls[obj] = fd
			}
		}
	}
	// Scan every function: direct edges, held call sites, per-function
	// direct acquire sets and the call graph.
	for obj, fd := range g.decls {
		g.scanFunction(obj, fd.Body)
	}
	g.propagateAcquires()
	g.resolveCalls()
	g.reportCycles()
}

// scanFunction walks one function body with lexical held-set tracking.
func (g *lockGraph) scanFunction(fn types.Object, body *ast.BlockStmt) {
	g.acquires[fn] = map[types.Object]bool{}
	g.calls[fn] = map[types.Object]bool{}
	g.scanStmts(fn, body.List, &heldSet{})
}

// heldSet is the ordered multiset of currently held mutexes.
type heldSet struct {
	order []types.Object
	depth map[types.Object]int
}

func (h *heldSet) copy() *heldSet {
	c := &heldSet{order: append([]types.Object(nil), h.order...), depth: map[types.Object]int{}}
	for k, v := range h.depth {
		c.depth[k] = v
	}
	return c
}

func (h *heldSet) acquire(obj types.Object) {
	if h.depth == nil {
		h.depth = map[types.Object]int{}
	}
	if h.depth[obj] == 0 {
		h.order = append(h.order, obj)
	}
	h.depth[obj]++
}

func (h *heldSet) release(obj types.Object) {
	if h.depth[obj] == 0 {
		return
	}
	h.depth[obj]--
	if h.depth[obj] == 0 {
		for i := len(h.order) - 1; i >= 0; i-- {
			if h.order[i] == obj {
				h.order = append(h.order[:i], h.order[i+1:]...)
				break
			}
		}
	}
}

func (h *heldSet) holding() []types.Object {
	var out []types.Object
	for _, obj := range h.order {
		if h.depth[obj] > 0 {
			out = append(out, obj)
		}
	}
	return out
}

func (g *lockGraph) scanStmts(fn types.Object, stmts []ast.Stmt, held *heldSet) {
	for _, s := range stmts {
		g.scanStmt(fn, s, held)
	}
}

func (g *lockGraph) scanStmt(fn types.Object, s ast.Stmt, held *heldSet) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if g.handleLockCall(fn, s.X, held, false) {
			return
		}
		g.scanExpr(fn, s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held to the end of the
		// function — which is what the held set already says. A deferred
		// Lock would be bizarre; ignore it like mutexblock does.
		if kind, _ := lockCallTarget(g.pass, s.Call); kind == notMutexCall {
			g.scanExpr(fn, s.Call, held)
		}
	case *ast.GoStmt:
		// The goroutine does not inherit the spawner's locks, and its
		// acquisitions are concurrent, not nested: no edges. Its body is
		// reached as a FuncLit with a clean held set via scanExpr.
		g.scanExpr(fn, s.Call.Fun, &heldSet{})
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			g.scanExpr(fn, e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			g.scanExpr(fn, e, held)
		}
	case *ast.SendStmt:
		g.scanExpr(fn, s.Chan, held)
		g.scanExpr(fn, s.Value, held)
	case *ast.DeclStmt:
		g.scanExpr(fn, s, held)
	case *ast.BlockStmt:
		g.scanStmts(fn, s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			g.scanStmt(fn, s.Init, held)
		}
		g.scanExpr(fn, s.Cond, held)
		g.scanStmts(fn, s.Body.List, held.copy())
		if s.Else != nil {
			g.scanStmt(fn, s.Else, held.copy())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			g.scanStmt(fn, s.Init, held)
		}
		if s.Cond != nil {
			g.scanExpr(fn, s.Cond, held)
		}
		g.scanStmts(fn, s.Body.List, held.copy())
	case *ast.RangeStmt:
		g.scanExpr(fn, s.X, held)
		g.scanStmts(fn, s.Body.List, held.copy())
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := held.copy()
				if cc.Comm != nil {
					g.scanStmt(fn, cc.Comm, branch)
				}
				g.scanStmts(fn, cc.Body, branch)
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.scanStmt(fn, s.Init, held)
		}
		g.scanExpr(fn, s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.scanStmts(fn, cc.Body, held.copy())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.scanStmts(fn, cc.Body, held.copy())
			}
		}
	case *ast.LabeledStmt:
		g.scanStmt(fn, s.Stmt, held)
	}
}

// handleLockCall processes e if it is a Lock/Unlock on an identifiable
// mutex, updating the held set, recording edges and the function's
// direct acquire set. Returns true when e was a mutex call.
func (g *lockGraph) handleLockCall(fn types.Object, e ast.Expr, held *heldSet, deferred bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	kind, recv := lockCallTarget(g.pass, call)
	if kind == notMutexCall {
		return false
	}
	obj, label := g.mutexIdentity(recv)
	if obj == nil {
		return true // an anonymous mutex expression; nothing to track
	}
	g.labels[obj] = label
	switch kind {
	case lockAcquire:
		for _, from := range held.holding() {
			g.addEdge(from, obj, call.Pos(), "")
		}
		held.acquire(obj)
		g.acquires[fn][obj] = true
	case lockRelease:
		held.release(obj)
	}
	return true
}

// scanExpr records call-graph facts and held call sites inside an
// expression subtree; nested function literals are scanned with a
// clean held set but contribute their acquisitions to the enclosing
// function's summary (a closure is usually invoked by the function
// that builds it).
func (g *lockGraph) scanExpr(fn types.Object, n ast.Node, held *heldSet) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.scanStmts(fn, n.Body.List, &heldSet{})
			return false
		case *ast.CallExpr:
			if g.handleLockCall(fn, n, held, false) {
				return false
			}
			callee := calleeObject(g.pass, n)
			if callee == nil {
				return true
			}
			if _, local := g.decls[callee]; !local {
				return true
			}
			g.calls[fn][callee] = true
			if holding := held.holding(); len(holding) > 0 {
				g.pending = append(g.pending, pendingCall{
					held:   holding,
					callee: callee,
					pos:    n.Pos(),
					name:   calleeDisplay(n),
				})
			}
		}
		return true
	})
}

// lockCallTarget classifies call as a mutex acquire/release (via
// mutexblock's mutexCallKind) and returns the receiver expression —
// the `sh.mu` in `sh.mu.Lock()` — for identity resolution.
func lockCallTarget(pass *Pass, call *ast.CallExpr) (lockCallKind, ast.Expr) {
	kind := mutexCallKind(pass, call)
	if kind == notMutexCall {
		return notMutexCall, nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return notMutexCall, nil
	}
	return kind, sel.X
}

// calleeObject resolves a call to a same-package function or method
// object, when the callee is a plain identifier or selector.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.Pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func calleeDisplay(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return exprDisplay(fun)
	}
	return "call"
}

// mutexIdentity resolves the receiver expression of a Lock call to its
// declaration-level identity: the struct field object (all instances
// share it) or the package-level variable object.
func (g *lockGraph) mutexIdentity(recv ast.Expr) (types.Object, string) {
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		obj, ok := g.pass.Pkg.Info.Uses[recv.Sel].(*types.Var)
		if !ok {
			return nil, ""
		}
		if obj.IsField() {
			return obj, fieldLabel(g.pass, recv, obj)
		}
		return obj, obj.Name()
	case *ast.Ident:
		obj, ok := g.pass.Pkg.Info.Uses[recv].(*types.Var)
		if !ok {
			return nil, ""
		}
		return obj, obj.Name()
	case *ast.ParenExpr:
		return g.mutexIdentity(recv.X)
	case *ast.IndexExpr:
		return g.mutexIdentity(recv.X)
	}
	return nil, ""
}

// fieldLabel renders "Type.field" for a mutex field, falling back to
// the source selector text when the base type is unnamed.
func fieldLabel(pass *Pass, sel *ast.SelectorExpr, field *types.Var) string {
	if tv, ok := pass.Pkg.Info.Types[sel.X]; ok && tv.Type != nil {
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + field.Name()
		}
	}
	return exprDisplay(sel)
}

func (g *lockGraph) addEdge(from, to types.Object, pos token.Pos, via string) {
	key := [2]types.Object{from, to}
	if _, ok := g.edges[key]; !ok {
		g.edges[key] = &lockEdge{from: from, to: to, pos: pos, via: via}
	}
}

// propagateAcquires closes each function's acquire set over the
// package call graph (may-acquire, not must-acquire).
func (g *lockGraph) propagateAcquires() {
	for changed := true; changed; {
		changed = false
		for fn, callees := range g.calls {
			acq := g.acquires[fn]
			for callee := range callees {
				for m := range g.acquires[callee] {
					if !acq[m] {
						acq[m] = true
						changed = true
					}
				}
			}
		}
	}
}

// resolveCalls turns held call sites into edges using the transitive
// acquire sets.
func (g *lockGraph) resolveCalls() {
	for _, pc := range g.pending {
		for m := range g.acquires[pc.callee] {
			for _, from := range pc.held {
				g.addEdge(from, m, pc.pos, pc.name)
			}
		}
	}
}

// reportCycles reports every edge that participates in a cycle, at the
// edge's source position. Reporting per-edge (not per-cycle) puts a
// finding at each acquisition site a developer would need to reorder.
func (g *lockGraph) reportCycles() {
	adj := map[types.Object][]types.Object{}
	for key := range g.edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	reaches := func(from, to types.Object) bool {
		if from == to {
			return true
		}
		seen := map[types.Object]bool{from: true}
		stack := []types.Object{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range adj[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	var offending []*lockEdge
	for _, e := range g.edges {
		if reaches(e.to, e.from) {
			offending = append(offending, e)
		}
	}
	sort.Slice(offending, func(i, j int) bool { return offending[i].pos < offending[j].pos })
	for _, e := range offending {
		from, to := g.labels[e.from], g.labels[e.to]
		switch {
		case e.from == e.to && e.via == "":
			g.pass.Report(e.pos, "mutex %s acquired while already held: self-deadlock (or an instance-pair pattern needing a documented order)", to)
		case e.from == e.to:
			g.pass.Report(e.pos, "call to %s re-acquires %s while it is held: self-deadlock on any shared instance", e.via, to)
		case e.via == "":
			g.pass.Report(e.pos, "acquiring %s while holding %s completes a lock-order cycle (%s is also held when %s is acquired): pick one order", to, from, to, from)
		default:
			g.pass.Report(e.pos, "call to %s acquires %s while %s is held, completing a lock-order cycle with the reverse order elsewhere: pick one order", e.via, to, from)
		}
	}
}
