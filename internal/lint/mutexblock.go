package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MutexBlockAnalyzer flags operations that can block indefinitely —
// channel sends and receives, selects without a default, time.Sleep,
// WaitGroup.Wait, Cond.Wait — performed while a sync.Mutex or RWMutex
// is held. In the serving planes (internal/server, internal/obs) a
// blocked critical section stalls every request behind it (a session's
// lock queues every caller of that session) and can deadlock, so
// blocking work must move outside the lock (the sessions registry's
// snapshot-then-purge pattern).
//
// The analysis is lexical, per function body: it tracks lock depth
// through the statement list (a deferred Unlock keeps the lock held to
// the end of the function) and descends into branches with a copy of
// the state. Function literals start unlocked, and `go` statements are
// skipped — their bodies do not run under the caller's lock.
var MutexBlockAnalyzer = &Analyzer{
	Name: "mutexblock",
	Doc:  "forbid channel operations and blocking calls while a sync mutex is held",
	Run:  runMutexBlock,
}

func runMutexBlock(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Keep descending after scanning a body: nested function
			// literals (goroutine bodies, callbacks) are reached here and
			// get their own fresh state. scanStmt never enters a FuncLit,
			// so each body is scanned exactly once.
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					scanLocked(pass, n.Body.List, &lockState{})
				}
			case *ast.FuncLit:
				scanLocked(pass, n.Body.List, &lockState{})
			}
			return true
		})
	}
}

// lockState is the lexical lock-tracking state within one function.
type lockState struct {
	depth int
}

func (st *lockState) held() bool { return st.depth > 0 }

func (st *lockState) copy() *lockState { c := *st; return &c }

// scanLocked walks a statement list in source order, updating the lock
// state and reporting blocking operations performed while locked.
func scanLocked(pass *Pass, stmts []ast.Stmt, st *lockState) {
	for _, s := range stmts {
		scanStmt(pass, s, st)
	}
}

func scanStmt(pass *Pass, s ast.Stmt, st *lockState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if kind := mutexCallKind(pass, s.X); kind == lockAcquire {
			st.depth++
			return
		} else if kind == lockRelease {
			if st.depth > 0 {
				st.depth--
			}
			return
		}
		checkBlockingExpr(pass, s.X, st)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for the
		// rest of the function, which is exactly what depth already
		// says. Other deferred calls do not run here either.
	case *ast.GoStmt:
		// The spawned goroutine does not hold the caller's lock; its
		// body is scanned as a FuncLit with fresh state.
	case *ast.SendStmt:
		if st.held() {
			pass.Report(s.Arrow, "channel send while holding a mutex: move the send outside the critical section")
		}
		checkBlockingExpr(pass, s.Chan, st)
		checkBlockingExpr(pass, s.Value, st)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if st.held() && !hasDefault {
			pass.Report(s.Select, "blocking select while holding a mutex: add a default case or release the lock first")
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				scanLocked(pass, cc.Body, st.copy())
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkBlockingExpr(pass, e, st)
		}
	case *ast.DeclStmt:
		checkBlockingExpr(pass, s, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			checkBlockingExpr(pass, e, st)
		}
	case *ast.BlockStmt:
		scanLocked(pass, s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, st)
		}
		checkBlockingExpr(pass, s.Cond, st)
		scanLocked(pass, s.Body.List, st.copy())
		if s.Else != nil {
			scanStmt(pass, s.Else, st.copy())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, st)
		}
		if s.Cond != nil {
			checkBlockingExpr(pass, s.Cond, st)
		}
		scanLocked(pass, s.Body.List, st.copy())
	case *ast.RangeStmt:
		checkBlockingExpr(pass, s.X, st)
		scanLocked(pass, s.Body.List, st.copy())
	case *ast.SwitchStmt:
		if s.Init != nil {
			scanStmt(pass, s.Init, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanLocked(pass, cc.Body, st.copy())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanLocked(pass, cc.Body, st.copy())
			}
		}
	case *ast.LabeledStmt:
		scanStmt(pass, s.Stmt, st)
	}
}

// lockCallKind classifies a mutex method call expression.
type lockCallKind int

const (
	notMutexCall lockCallKind = iota
	lockAcquire
	lockRelease
)

// mutexCallKind reports whether e is a Lock/RLock or Unlock/RUnlock
// call on a sync.Mutex or sync.RWMutex (including ones embedded in or
// reached through struct fields).
func mutexCallKind(pass *Pass, e ast.Expr) lockCallKind {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return notMutexCall
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return notMutexCall
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return notMutexCall
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return notMutexCall
	}
	name := recvTypeName(recv.Type())
	if name != "Mutex" && name != "RWMutex" {
		return notMutexCall
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return lockAcquire
	case "Unlock", "RUnlock":
		return lockRelease
	}
	return notMutexCall
}

// recvTypeName unwraps a (possibly pointer) receiver to its named type.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// checkBlockingExpr inspects an expression (or declaration) subtree
// for operations that can block: channel receives and calls to
// time.Sleep, (*sync.WaitGroup).Wait, (*sync.Cond).Wait. Function
// literals are skipped — defining a closure does not run it.
func checkBlockingExpr(pass *Pass, n ast.Node, st *lockState) {
	if n == nil || !st.held() {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Report(n.OpPos, "channel receive while holding a mutex: move the receive outside the critical section")
			}
		case *ast.CallExpr:
			if name := blockingCallName(pass, n); name != "" {
				pass.Report(n.Pos(), "%s while holding a mutex: release the lock before blocking", name)
			}
		}
		return true
	})
}

// blockingCallName identifies well-known blocking calls.
func blockingCallName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "sync":
		if fn.Name() != "Wait" {
			return ""
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return ""
		}
		switch recvTypeName(sig.Recv().Type()) {
		case "WaitGroup":
			return "sync.WaitGroup.Wait"
		case "Cond":
			return "sync.Cond.Wait"
		}
	}
	return ""
}
