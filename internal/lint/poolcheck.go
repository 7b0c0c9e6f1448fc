package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolCheckAnalyzer enforces DESIGN §9's scratch-ownership rules on
// sync.Pool values: a pooled value is held between exactly one Get and
// at most one Put, inside one function, by one owner. It flags, per
// function body and lexically (branches are scanned with a copy of the
// state, mirroring mutexblock):
//
//   - use-after-Put: any mention of the pooled value (or a reference
//     derived from it) after the statement that returned it to the pool;
//   - double-Put: returning the same value to a pool twice on one path;
//   - Put of an escaped value: the value was stored into a field or
//     package variable, sent on a channel, or returned before the Put —
//     another goroutine may still hold it, so only the receiver that
//     got it back may Put (the receiver-only-Put rule);
//   - retained aliasing: a deferred Put combined with returning the
//     value (or a slice/pointer derived from it) hands the caller
//     memory the pool is about to recycle.
//
// Sites where a protocol guarantees safety (a reply that hands the
// value back to its sender) carry a //dvfslint:allow poolcheck
// directive naming that protocol.
var PoolCheckAnalyzer = &Analyzer{
	Name: "poolcheck",
	Doc:  "enforce sync.Pool ownership: no use-after-Put, double-Put, Put of escaped values, or returned aliases of deferred-Put values",
	Run:  runPoolCheck,
}

func runPoolCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Each body is scanned exactly once with fresh state; nested
			// function literals reached here get their own scan and never
			// inherit the enclosing body's pooled variables.
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scanPoolBody(pass, n.Body.List, newPoolState())
				}
			case *ast.FuncLit:
				scanPoolBody(pass, n.Body.List, newPoolState())
			}
			return true
		})
	}
}

// poolVar is the lexical lifecycle of one value obtained from a
// sync.Pool within one function body.
type poolVar struct {
	name string
	// group links aliases: every variable derived from the same Get
	// shares one group, so putting or using any member affects all.
	group *poolGroup
}

// poolGroup is the shared state of one pooled value and its aliases.
type poolGroup struct {
	name        string // the original Get target, for messages
	putLine     int    // 0 while live
	escapedLine int    // 0 until stored in a field, sent, or returned
	escapedHow  string
	deferredPut bool
}

// poolState tracks pooled variables per lexical path. vars maps the
// variable object to its lifecycle; copies share the groups (an alias
// discovered in a branch is still an alias after it) but branch
// put/escape transitions are path-local via the group copy.
type poolState struct {
	vars map[types.Object]*poolVar
}

func newPoolState() *poolState {
	return &poolState{vars: map[types.Object]*poolVar{}}
}

// copyState clones the state for a branch: group lifecycles fork so a
// Put inside an if-body (followed by a return) does not poison the
// fall-through path.
func (st *poolState) copyState() *poolState {
	c := newPoolState()
	groups := map[*poolGroup]*poolGroup{}
	for obj, pv := range st.vars {
		g, ok := groups[pv.group]
		if !ok {
			cp := *pv.group
			g = &cp
			groups[pv.group] = g
		}
		c.vars[obj] = &poolVar{name: pv.name, group: g}
	}
	return c
}

func scanPoolBody(pass *Pass, stmts []ast.Stmt, st *poolState) {
	for _, s := range stmts {
		scanPoolStmt(pass, s, st)
	}
}

func scanPoolStmt(pass *Pass, s ast.Stmt, st *poolState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		scanPoolAssign(pass, s, st)
	case *ast.ExprStmt:
		if pv, ok := poolPutCall(pass, s.X, st); ok {
			recordPut(pass, s.X.Pos(), pv)
			return
		}
		checkPoolUses(pass, s.X, st)
	case *ast.DeferStmt:
		if pv, ok := poolPutCall(pass, s.Call, st); ok {
			pv.group.deferredPut = true
			return
		}
		checkPoolUses(pass, s.Call, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			checkPoolUses(pass, e, st)
			for _, pv := range referencedPoolVars(pass, e, st) {
				g := pv.group
				if g.deferredPut {
					pass.Report(e.Pos(), "pooled value %s (or memory it aliases) is returned while a deferred Put releases it: copy it out before returning", g.name)
				} else if g.putLine == 0 {
					g.escapedLine = pass.Pkg.Position(e.Pos()).Line
					g.escapedHow = "returned to the caller"
				}
			}
		}
	case *ast.SendStmt:
		checkPoolUses(pass, s.Chan, st)
		checkPoolUses(pass, s.Value, st)
		for _, pv := range referencedPoolVars(pass, s.Value, st) {
			if pv.group.putLine == 0 {
				pv.group.escapedLine = pass.Pkg.Position(s.Arrow).Line
				pv.group.escapedHow = "sent on a channel"
			}
		}
	case *ast.GoStmt:
		checkPoolUses(pass, s.Call, st)
		for _, pv := range referencedPoolVars(pass, s.Call, st) {
			if pv.group.putLine == 0 {
				pv.group.escapedLine = pass.Pkg.Position(s.Pos()).Line
				pv.group.escapedHow = "captured by a goroutine"
			}
		}
	case *ast.DeclStmt:
		checkPoolUses(pass, s, st)
	case *ast.BlockStmt:
		scanPoolBody(pass, s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			scanPoolStmt(pass, s.Init, st)
		}
		checkPoolUses(pass, s.Cond, st)
		scanPoolBody(pass, s.Body.List, st.copyState())
		if s.Else != nil {
			scanPoolStmt(pass, s.Else, st.copyState())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanPoolStmt(pass, s.Init, st)
		}
		if s.Cond != nil {
			checkPoolUses(pass, s.Cond, st)
		}
		scanPoolBody(pass, s.Body.List, st.copyState())
	case *ast.RangeStmt:
		checkPoolUses(pass, s.X, st)
		scanPoolBody(pass, s.Body.List, st.copyState())
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := st.copyState()
				if cc.Comm != nil {
					scanPoolStmt(pass, cc.Comm, branch)
				}
				scanPoolBody(pass, cc.Body, branch)
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			scanPoolStmt(pass, s.Init, st)
		}
		checkPoolUses(pass, s.Tag, st)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanPoolBody(pass, cc.Body, st.copyState())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanPoolBody(pass, cc.Body, st.copyState())
			}
		}
	case *ast.LabeledStmt:
		scanPoolStmt(pass, s.Stmt, st)
	}
}

// scanPoolAssign handles the three assignment shapes the lifecycle
// cares about: a Get that starts tracking, a write that makes a pooled
// value escape, and a derived reference that joins an alias group.
func scanPoolAssign(pass *Pass, s *ast.AssignStmt, st *poolState) {
	checkPoolUses(pass, s, st)

	// x := pool.Get()  /  x := pool.Get().(T)
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && isPoolGetExpr(pass, s.Rhs[0]) {
		if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := assignedObject(pass, id); obj != nil {
				st.vars[obj] = &poolVar{name: id.Name, group: &poolGroup{name: id.Name}}
			}
		}
		return
	}

	for i, rhs := range s.Rhs {
		refs := referencedPoolVars(pass, rhs, st)
		if len(refs) == 0 {
			continue
		}
		if i >= len(s.Lhs) {
			break
		}
		lhs := s.Lhs[i]
		// Storing the value outside this function's frame is an escape:
		// a field of a non-pooled object, an element of one, or a
		// package-level variable.
		if target, ok := escapeTarget(pass, lhs, st); ok {
			for _, pv := range refs {
				if pv.group.putLine == 0 && pv.group.escapedLine == 0 {
					pv.group.escapedLine = pass.Pkg.Position(s.Pos()).Line
					pv.group.escapedHow = "stored in " + target
				}
			}
			continue
		}
		// x := <expr referencing a pooled value> of reference type:
		// x aliases the pooled memory and joins the group.
		if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
			if obj := assignedObject(pass, id); obj != nil && isReferenceType(objType(obj)) {
				if _, tracked := st.vars[obj]; !tracked {
					st.vars[obj] = &poolVar{name: id.Name, group: refs[0].group}
				}
			}
		}
	}
}

// recordPut transitions a pooled value to returned, reporting
// double-Puts and Puts of escaped values.
func recordPut(pass *Pass, pos token.Pos, pv *poolVar) {
	g := pv.group
	if g.putLine != 0 {
		pass.Report(pos, "pooled value %s returned to the pool twice (previous Put at line %d)", g.name, g.putLine)
		return
	}
	if g.escapedLine != 0 {
		pass.Report(pos, "pooled value %s escaped before this Put (%s at line %d): only the receiver that got it back may return it to the pool", g.name, g.escapedHow, g.escapedLine)
	}
	g.putLine = pass.Pkg.Position(pos).Line
}

// checkPoolUses reports mentions of already-Put pooled values anywhere
// in the expression subtree. Nested function literals are skipped:
// defining a closure does not run it, and its body gets its own scan.
func checkPoolUses(pass *Pass, n ast.Node, st *poolState) {
	if n == nil || len(st.vars) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if pv, tracked := st.vars[obj]; tracked && pv.group.putLine != 0 {
			pass.Report(id.Pos(), "use of pooled value %s after it was returned to the pool (Put at line %d)", pv.group.name, pv.group.putLine)
		}
		return true
	})
}

// referencedPoolVars collects the live tracked variables mentioned in
// an expression subtree, skipping nested function literals.
func referencedPoolVars(pass *Pass, n ast.Node, st *poolState) []*poolVar {
	if n == nil || len(st.vars) == 0 {
		return nil
	}
	var out []*poolVar
	seen := map[*poolGroup]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if pv, tracked := st.vars[obj]; tracked && !seen[pv.group] {
			seen[pv.group] = true
			out = append(out, pv)
		}
		return true
	})
	return out
}

// escapeTarget classifies an assignment target that moves a pooled
// value out of the function's frame. Writes into the pooled value
// itself (req.ctx = nil, *bp = buf) are ownership-preserving and do
// not escape.
func escapeTarget(pass *Pass, lhs ast.Expr, st *poolState) (string, bool) {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if exprRootIsTracked(pass, lhs.X, st) {
			return "", false // field of the pooled value itself
		}
		return "field " + exprDisplay(lhs), true
	case *ast.IndexExpr:
		if exprRootIsTracked(pass, lhs.X, st) {
			return "", false
		}
		return "element of " + exprDisplay(lhs.X), true
	case *ast.StarExpr:
		if exprRootIsTracked(pass, lhs.X, st) {
			return "", false // writing through the pooled pointer
		}
		return "dereference of " + exprDisplay(lhs.X), true
	case *ast.Ident:
		obj := assignedObject(pass, lhs)
		if v, ok := obj.(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return "package variable " + lhs.Name, true
		}
	}
	return "", false
}

// exprRootIsTracked reports whether the base of a selector/index/star
// chain is itself a tracked pooled variable.
func exprRootIsTracked(pass *Pass, e ast.Expr, st *poolState) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[x]
			if obj == nil {
				return false
			}
			_, tracked := st.vars[obj]
			return tracked
		default:
			return false
		}
	}
}

// exprDisplay renders a short source-ish form of e for messages.
func exprDisplay(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprDisplay(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprDisplay(e.X)
	case *ast.StarExpr:
		return "*" + exprDisplay(e.X)
	case *ast.IndexExpr:
		return exprDisplay(e.X) + "[...]"
	}
	return "expression"
}

// assignedObject resolves the object an identifier binds or assigns.
func assignedObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Pkg.Info.Uses[id]
}

func objType(obj types.Object) types.Type {
	if obj == nil {
		return nil
	}
	return obj.Type()
}

// isReferenceType reports whether values of t share underlying memory
// when copied — the types through which pooled memory can alias.
func isReferenceType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// isPoolGetExpr reports whether e is (*sync.Pool).Get(), possibly
// wrapped in a type assertion.
func isPoolGetExpr(pass *Pass, e ast.Expr) bool {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	return poolMethodName(pass, call) == "Get"
}

// poolPutCall reports whether e is (*sync.Pool).Put(x) on a tracked
// variable, returning its lifecycle.
func poolPutCall(pass *Pass, e ast.Expr, st *poolState) (*poolVar, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || poolMethodName(pass, call) != "Put" || len(call.Args) != 1 {
		return nil, false
	}
	arg := call.Args[0]
	for {
		if p, ok := arg.(*ast.ParenExpr); ok {
			arg = p.X
			continue
		}
		break
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return nil, false
	}
	pv, tracked := st.vars[obj]
	return pv, tracked
}

// poolMethodName resolves a call to a method on sync.Pool, returning
// its name ("Get", "Put") or "".
func poolMethodName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || recvTypeName(recv.Type()) != "Pool" {
		return ""
	}
	return fn.Name()
}
