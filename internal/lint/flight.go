package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// flightPkgPath is the flight-recorder package whose emission discipline
// this pass audits.
const flightPkgPath = "cfm/internal/flight"

// FlightPass checks the flight recorder's emission discipline in the
// instrumented packages (everything importing cfm/internal/flight except
// the flight package itself and the cmd/ harnesses):
//
//   - every (*flight.Recorder).Emit / Append / AppendAll call and every
//     flight.Event composite literal must sit inside an if whose
//     condition mentions .Enabled() — the disabled path carries a
//     zero-alloc, <2%-overhead budget, and an unguarded call evaluates
//     its arguments (ComposeID, conversions, a staged batch) even when
//     recording is off. Annotate an intentionally unguarded site with
//     //cfm:flight-ok <why> (e.g. a cold path that re-checks inside a
//     helper, or a fold drain whose staged batch is empty when off).
//   - a package referencing an opening stage (StageIssue or
//     StageNetInject) must also reference StageRetire: spans that open
//     but never retire report Complete=false forever, silently vanishing
//     from the latency attribution.
func FlightPass() *Pass {
	const name = "flight"
	return &Pass{
		Name: name,
		Doc:  "flight emissions must be Enabled()-guarded, and opened spans must retire",
		Run: func(t *Target, r *Reporter) {
			if t.Path == flightPkgPath || strings.HasPrefix(t.Path, "cfm/cmd/") {
				return
			}
			if !importsFlight(t) {
				return
			}
			var openPos, retirePos token.Pos
			for _, file := range t.Files {
				t.checkFlightGuards(file, r, name)
				for ident, obj := range t.Info.Uses {
					if !isFlightObject(obj) {
						continue
					}
					switch obj.Name() {
					case "StageIssue", "StageNetInject":
						if openPos == token.NoPos || ident.Pos() < openPos {
							openPos = ident.Pos()
						}
					case "StageRetire":
						retirePos = ident.Pos()
					}
				}
			}
			if openPos != token.NoPos && retirePos == token.NoPos {
				r.Reportf(name, openPos, "package emits an opening flight stage but never flight.StageRetire: spans that open must retire, or the latency attribution drops them as incomplete")
			}
		},
	}
}

// importsFlight reports whether the target imports the flight package.
func importsFlight(t *Target) bool {
	for _, imp := range t.Pkg.Imports() {
		if imp.Path() == flightPkgPath {
			return true
		}
	}
	return false
}

// isFlightObject reports whether obj is declared in the flight package.
func isFlightObject(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == flightPkgPath
}

// checkFlightGuards walks one file tracking whether the current node is
// inside the taken branch of an Enabled() guard, and reports emission
// sites outside one.
func (t *Target) checkFlightGuards(file *ast.File, r *Reporter, pass string) {
	var walk func(n ast.Node, guarded bool)
	report := func(pos token.Pos, what string) {
		if t.lineAnnotated(file, pos, "flight-ok") {
			return
		}
		r.Reportf(pass, pos, "%s outside an Enabled() guard: wrap the emission in `if rec.Enabled() { ... }` so the disabled path stays allocation-free, or annotate //cfm:flight-ok <why>", what)
	}
	walk = func(n ast.Node, guarded bool) {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init, guarded)
			}
			walk(n.Cond, guarded)
			walk(n.Body, guarded || mentionsEnabled(n.Cond))
			if n.Else != nil {
				walk(n.Else, guarded)
			}
			return
		case *ast.CallExpr:
			if !guarded && t.flightEmitCall(n) {
				report(n.Pos(), "flight.Recorder emission")
			}
		case *ast.CompositeLit:
			if !guarded && t.isFlightEventLit(n) {
				report(n.Pos(), "flight.Event construction")
			}
		}
		if n != nil {
			for _, child := range childNodes(n) {
				walk(child, guarded)
			}
		}
	}
	walk(file, false)
}

// childNodes collects a node's direct children (one ast.Inspect level).
func childNodes(n ast.Node) []ast.Node {
	var kids []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			kids = append(kids, c)
		}
		return false
	})
	return kids
}

// mentionsEnabled reports whether an expression contains a call to a
// method or function named Enabled — the guard shape this pass accepts.
func mentionsEnabled(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Enabled" {
				found = true
			}
		case *ast.Ident:
			if fun.Name == "Enabled" {
				found = true
			}
		}
		return !found
	})
	return found
}

// flightEmitCall reports whether call is (*flight.Recorder).Emit,
// Append or AppendAll.
func (t *Target) flightEmitCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Emit" && sel.Sel.Name != "Append" && sel.Sel.Name != "AppendAll") {
		return false
	}
	fn, ok := t.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !isFlightObject(fn) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Recorder"
}

// isFlightEventLit reports whether lit builds a flight.Event.
func (t *Target) isFlightEventLit(lit *ast.CompositeLit) bool {
	tv, ok := t.Info.Types[lit]
	if !ok {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == flightPkgPath
}
