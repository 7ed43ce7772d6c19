package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// phaseNames maps the sim phase constants to their bit positions; keep
// in sync with internal/sim (the fixture suite pins the correspondence).
var phaseNames = map[string]int{
	"PhaseIssue":    0,
	"PhaseConnect":  1,
	"PhaseTransfer": 2,
	"PhaseUpdate":   3,
}

var phaseOrder = []string{"PhaseIssue", "PhaseConnect", "PhaseTransfer", "PhaseUpdate"}

// PhaseMaskPass cross-checks each type's declared phase interest — the
// literal returned by PhaseMask() — against the
// sim.Phase constants its ticking methods (Tick, TickShard,
// FinishShards) actually dispatch on. An understated mask silently
// changes the simulation at EVERY worker count (the schedule compiler
// drops the phase), so it never shows up as a serial/parallel
// divergence; the only reliable guard is reading the source.
//
// Two diagnostics:
//
//   - undeclared-handled: a ticking method dispatches on a phase the
//     mask omits — that case is dead code, the engine never calls it.
//   - declared-unhandled: the mask declares a phase that a fully
//     dispatched ticker (whose ticking methods are pure switches or
//     guard-returns over the phase parameter) never handles — the
//     engine schedules pointless no-op calls every slot.
//
// Types whose mask is computed rather than literal, or whose ticking
// methods do unconditional work (phase-independent tickers), are out of
// static reach and skipped.
func PhaseMaskPass() *Pass {
	const name = "phasemask"
	return &Pass{
		Name: name,
		Doc:  "PhaseMask() literals must match the sim.Phase cases Tick/TickShard/FinishShards handle",
		Run: func(t *Target, r *Reporter) {
			for _, file := range t.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Recv == nil {
						continue
					}
					if fd.Name.Name != "PhaseMask" {
						continue
					}
					t.checkPhaseMask(name, fd, r)
				}
			}
		},
	}
}

// checkPhaseMask analyzes one PhaseMask declaration.
func (t *Target) checkPhaseMask(pass string, maskDecl *ast.FuncDecl, r *Reporter) {
	recv := t.receiverTypeName(maskDecl)
	if recv == nil {
		return
	}
	declared, literal := t.declaredMask(maskDecl)
	if !literal {
		return
	}
	tickMethods := make([]*ast.FuncDecl, 0, 3)
	for _, mname := range []string{"Tick", "TickShard", "FinishShards"} {
		if fd := t.methodDecl(recv, mname); fd != nil && fd.Body != nil {
			tickMethods = append(tickMethods, fd)
		}
	}
	if len(tickMethods) == 0 {
		return
	}

	// undeclared-handled: any phase constant the ticking methods mention
	// must be inside the mask.
	mentioned := make(map[string]ast.Node)
	for _, fd := range tickMethods {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if ph, isPhase := t.phaseConst(id); isPhase {
				if _, seen := mentioned[ph]; !seen {
					mentioned[ph] = id
				}
			}
			return true
		})
	}
	for _, ph := range phaseOrder {
		node, ok := mentioned[ph]
		if !ok || declared[ph] {
			continue
		}
		r.Reportf(pass, node.Pos(), "%s dispatches on sim.%s but %s.%s() omits it: the engines compile that phase out of the schedule, so this branch is dead code (widen the mask or delete the branch)", nodeMethodName(t, node, tickMethods), ph, recv.Name(), maskDecl.Name.Name)
	}

	// declared-unhandled: only when every ticking method is fully
	// dispatched can we prove a masked phase does nothing.
	handled := make(map[string]bool)
	exhaustive := true
	for _, fd := range tickMethods {
		ok := t.dispatchedPhases(fd, handled)
		exhaustive = exhaustive && ok
	}
	if !exhaustive {
		return
	}
	var missing []string
	for _, ph := range phaseOrder {
		if declared[ph] && !handled[ph] {
			missing = append(missing, "sim."+ph)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		r.Reportf(pass, maskDecl.Pos(), "%s.%s() declares %s but the ticking methods never handle %s: the engine schedules a guaranteed no-op call there every slot (narrow the mask)", recv.Name(), maskDecl.Name.Name, strings.Join(missing, ", "), strings.Join(missing, ", "))
	}
}

// receiverTypeName resolves a method's receiver to its *types.TypeName.
func (t *Target) receiverTypeName(fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil
	}
	rt := t.Info.Types[fd.Recv.List[0].Type].Type
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil
	}
	return named.Obj()
}

// phaseConst reports whether id resolves to one of sim's Phase
// constants, returning its name.
func (t *Target) phaseConst(id *ast.Ident) (string, bool) {
	obj := t.Info.Uses[id]
	if obj == nil {
		return "", false
	}
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Path() != simPkgPath {
		return "", false
	}
	if _, known := phaseNames[c.Name()]; !known {
		return "", false
	}
	return c.Name(), true
}

// declaredMask extracts the literal phase set from a PhaseMask body.
// literal=false means the mask is computed and the type must be skipped.
func (t *Target) declaredMask(fd *ast.FuncDecl) (map[string]bool, bool) {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return nil, false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, false
	}
	declared := make(map[string]bool)
	switch e := ret.Results[0].(type) {
	case *ast.Ident, *ast.SelectorExpr:
		if maskAllRef(e) {
			for ph := range phaseNames {
				declared[ph] = true
			}
			return declared, true
		}
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		var fname string
		if ok {
			fname = sel.Sel.Name
		} else if id, isID := e.Fun.(*ast.Ident); isID {
			fname = id.Name
		}
		if fname != "MaskOf" {
			return nil, false
		}
		for _, arg := range e.Args {
			id := baseIdent(arg)
			if id == nil {
				return nil, false
			}
			ph, isPhase := t.phaseConst(id)
			if !isPhase {
				return nil, false
			}
			declared[ph] = true
		}
		return declared, true
	}
	return nil, false
}

// maskAllRef reports whether expr references sim.MaskAll.
func maskAllRef(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == "MaskAll"
	case *ast.SelectorExpr:
		return e.Sel.Name == "MaskAll"
	}
	return false
}

// baseIdent unwraps `sim.PhaseIssue` or `PhaseIssue` to the constant's
// identifier.
func baseIdent(expr ast.Expr) *ast.Ident {
	switch e := expr.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}

// dispatchedPhases extracts the set of phases a ticking method can do
// work in, when that is statically evident. It returns ok=false when
// the method's structure does not prove its full dispatch:
//
//   - a body that is a single `switch ph { case ... }` with no default
//     handles exactly its case phases;
//   - a body whose first statement is `if ph != sim.PhaseX { return }`
//     (possibly `ph != X || more { return }`) handles only X;
//   - a body that merely delegates to sim.SerialTick handles nothing
//     itself (the shard methods carry the dispatch).
func (t *Target) dispatchedPhases(fd *ast.FuncDecl, handled map[string]bool) bool {
	body := fd.Body.List
	if len(body) == 0 {
		return true
	}
	phParam := t.phaseParamName(fd)
	if phParam == "" {
		return false
	}

	// Delegation: single expression statement calling sim.SerialTick.
	if len(body) == 1 {
		if es, ok := body[0].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "SerialTick" {
					return true
				}
			}
		}
		// Pure switch over the phase parameter.
		if sw, ok := body[0].(*ast.SwitchStmt); ok {
			return t.switchPhases(sw, phParam, handled)
		}
	}

	// Guard-return: `if ph != sim.PhaseX { return }` as first statement
	// proves nothing past it runs outside X.
	if ifs, ok := body[0].(*ast.IfStmt); ok && ifs.Init == nil && ifs.Else == nil {
		if ph, ok := t.guardPhase(ifs, phParam); ok {
			handled[ph] = true
			return true
		}
	}
	return false
}

// phaseParamName returns the name of fd's sim.Phase parameter.
func (t *Target) phaseParamName(fd *ast.FuncDecl) string {
	for _, field := range fd.Type.Params.List {
		named, ok := t.Info.Types[field.Type].Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Phase" && obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath && len(field.Names) > 0 {
			return field.Names[0].Name
		}
	}
	return ""
}

// switchPhases folds a `switch ph { ... }` statement's case constants
// into handled; a default clause or non-constant case defeats the
// analysis.
func (t *Target) switchPhases(sw *ast.SwitchStmt, phParam string, handled map[string]bool) bool {
	tag, ok := sw.Tag.(*ast.Ident)
	if !ok || tag.Name != phParam || sw.Init != nil {
		return false
	}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			return false
		}
		if cc.List == nil {
			return false // default clause: anything may be handled
		}
		for _, e := range cc.List {
			id := baseIdent(e)
			if id == nil {
				return false
			}
			ph, isPhase := t.phaseConst(id)
			if !isPhase {
				return false
			}
			handled[ph] = true
		}
	}
	return true
}

// guardPhase recognizes `if ph != sim.PhaseX { return }` (the phase
// test may be the head of an || chain) and returns X.
func (t *Target) guardPhase(ifs *ast.IfStmt, phParam string) (string, bool) {
	if len(ifs.Body.List) != 1 {
		return "", false
	}
	if _, isRet := ifs.Body.List[0].(*ast.ReturnStmt); !isRet {
		return "", false
	}
	cond := ifs.Cond
	for {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return "", false
		}
		if be.Op.String() == "||" {
			cond = be.X
			continue
		}
		if be.Op.String() != "!=" {
			return "", false
		}
		x, isID := be.X.(*ast.Ident)
		if !isID || x.Name != phParam {
			return "", false
		}
		id := baseIdent(be.Y)
		if id == nil {
			return "", false
		}
		return t.phaseConst(id)
	}
}

// nodeMethodName names the ticking method containing node, for the
// diagnostic text.
func nodeMethodName(t *Target, node ast.Node, methods []*ast.FuncDecl) string {
	for _, fd := range methods {
		if fd.Body.Pos() <= node.Pos() && node.Pos() <= fd.Body.End() {
			return fd.Name.Name
		}
	}
	return "Tick"
}
