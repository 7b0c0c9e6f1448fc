package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroLeakAnalyzer flags goroutine lifecycle hazards in the long-lived
// types (cluster prober, router, worker pools): a `go`
// statement whose body observes no stop signal outlives its owner, and
// an unstopped time.Ticker leaks its channel and timer goroutine.
//
// A goroutine body counts as stoppable when it:
//
//   - receives from a context's Done channel,
//   - receives from a channel whose name signals shutdown (done, stop,
//     quit, exit, dead, close, kill — the repo's conventions),
//   - ranges over a channel (a closed channel ends the loop), or
//   - is tracked by a sync.WaitGroup (calls wg.Done), so an owner
//     provably waits for it.
//
// Bodies with none of these are fire-and-forget; goroutines whose stop
// signal is a protocol the analyzer cannot see (a closing listener, a
// context deadline set inside the body) carry a justified
// //dvfslint:allow goroleak directive naming it.
var GoroLeakAnalyzer = &Analyzer{
	Name: "goroleak",
	Doc:  "require goroutines to observe a stop signal and tickers to be stopped",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	decls := declBodies(pass)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(pass, n, decls)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkTickers(pass, n.Body)
				}
			case *ast.FuncLit:
				checkTickers(pass, n.Body)
			}
			return true
		})
	}
}

// declBodies indexes the package's function declarations by their
// type-checker objects, so `go obj.method(...)` resolves to a body.
func declBodies(pass *Pass) map[types.Object]*ast.BlockStmt {
	out := map[types.Object]*ast.BlockStmt{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Pkg.Info.Defs[fd.Name]; obj != nil {
				out[obj] = fd.Body
			}
		}
	}
	return out
}

// checkGoStmt resolves the spawned body and requires a stop signal.
// Calls whose body is out of reach (another package's function, a
// method value) are skipped: the analyzer only judges code it can see.
func checkGoStmt(pass *Pass, g *ast.GoStmt, decls map[types.Object]*ast.BlockStmt) {
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if obj := pass.Pkg.Info.Uses[fun]; obj != nil {
			body = decls[obj]
		}
	case *ast.SelectorExpr:
		if obj := pass.Pkg.Info.Uses[fun.Sel]; obj != nil {
			body = decls[obj]
		}
	}
	if body == nil {
		return
	}
	if !observesStop(pass, body) {
		pass.Report(g.Go, "fire-and-forget goroutine: body observes no stop signal (ctx.Done(), a done/stop channel, a close-ranged channel, or a tracked WaitGroup)")
	}
}

// stopChannelNames are the identifier fragments that mark a channel as
// a shutdown signal by convention.
var stopChannelNames = []string{"done", "stop", "quit", "exit", "dead", "close", "kill"}

func isStopName(name string) bool {
	name = strings.ToLower(name)
	for _, frag := range stopChannelNames {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// observesStop reports whether a goroutine body contains any of the
// recognized stop-signal shapes. The walk descends into nested
// literals: a stop observed inside a closure the goroutine runs still
// bounds the goroutine.
func observesStop(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isStopSource(pass, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupDone(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isStopSource reports whether the received-from expression is a stop
// signal: ctx.Done() or a conventionally named channel.
func isStopSource(pass *Pass, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Name() != "Done" {
			return false
		}
		// Done() on context.Context (or any interface embedding it).
		return fn.Pkg() != nil && fn.Pkg().Path() == "context"
	case *ast.Ident:
		return isStopName(e.Name)
	case *ast.SelectorExpr:
		return isStopName(e.Sel.Name)
	}
	return false
}

// isWaitGroupDone reports whether call is (*sync.WaitGroup).Done().
func isWaitGroupDone(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Done" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && recvTypeName(recv.Type()) == "WaitGroup"
}

// tickerState is the per-body lifecycle of one locally created ticker
// or timer.
type tickerState struct {
	pos     ast.Node
	kind    string
	stopped bool
	escaped bool
}

// checkTickers requires every time.NewTicker/NewTimer created and kept
// local to a body to be stopped in that same body. A ticker that
// escapes (returned, stored in a field, sent on a channel) transfers
// the obligation to its new owner and is skipped.
func checkTickers(pass *Pass, body *ast.BlockStmt) {
	tickers := map[types.Object]*tickerState{}
	for _, s := range body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		kind := timeConstructorName(pass, as.Rhs[0])
		if kind == "" {
			continue
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := assignedObject(pass, id); obj != nil {
			tickers[obj] = &tickerState{pos: as.Rhs[0], kind: kind}
		}
	}
	if len(tickers) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if base, ok := sel.X.(*ast.Ident); ok && (sel.Sel.Name == "Stop" || sel.Sel.Name == "Reset") {
				if obj := pass.Pkg.Info.Uses[base]; obj != nil {
					if t, tracked := tickers[obj]; tracked && sel.Sel.Name == "Stop" {
						t.stopped = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				markTickerEscapes(pass, e, tickers)
			}
		case *ast.SendStmt:
			markTickerEscapes(pass, n.Value, tickers)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if _, isSel := lhs.(*ast.SelectorExpr); isSel && i < len(n.Rhs) {
					markTickerEscapes(pass, n.Rhs[i], tickers)
				}
			}
		}
		return true
	})
	for _, t := range tickers {
		if !t.stopped && !t.escaped {
			pass.Report(t.pos.Pos(), "%s is never stopped in this function: defer its Stop() so the ticker's goroutine and channel are released", t.kind)
		}
	}
}

// markTickerEscapes marks tickers referenced by e as escaped.
func markTickerEscapes(pass *Pass, e ast.Expr, tickers map[types.Object]*tickerState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Pkg.Info.Uses[id]; obj != nil {
				if t, tracked := tickers[obj]; tracked {
					t.escaped = true
				}
			}
		}
		return true
	})
}

// timeConstructorName classifies time.NewTicker / time.NewTimer calls.
func timeConstructorName(pass *Pass, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	switch fn.Name() {
	case "NewTicker":
		return "time.Ticker"
	case "NewTimer":
		return "time.Timer"
	}
	return ""
}
