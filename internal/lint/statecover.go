package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StateCoverPass proves the checkpoint-coverage contract behind the
// resume-equivalence suite: for every sim.Stater declared in the
// package, each persistent field of the receiver struct — one the
// Tick/TickShard/FinishShards/FinishEpoch call graph may write,
// directly or through a mutating method like Queue.Push or RNG draws
// (effects.go's writesObj summary) — must be
//
//   - encoded in SaveState and restored in LoadState, or
//   - rebuilt by LoadState from encoded state and marked //cfm:rebuilt
//     on the field (derived state: cursors, materialized tables), or
//   - waived with //cfm:no-save <reason> (scratch that is empty at
//     every checkpoint boundary, e.g. per-shard staging buffers).
//
// Stale annotations are findings too: a //cfm:no-save or //cfm:rebuilt
// on a field SaveState actually encodes means the comment and the code
// disagree, which is exactly the drift the pass exists to catch.
//
// On top of coverage, the pass checks save/load symmetry: it extracts
// the StateEncoder call sequence from the SaveState graph and the
// StateDecoder sequence from LoadState as token traces — primitive
// tokens (u64, int, slot, rng, …) plus loop/branch structure and named
// helper calls (SaveBlock/LoadBlock pair as "block") — and reports the
// first position where the traces diverge. Resolvable helper pairs are
// verified recursively. The extractor is deliberately conservative:
// when a trace escapes the model (the codec handed to a func value or
// stored, a select statement, an unknown codec method) the pair is
// skipped silently rather than guessed at — the encoder's type tags
// and the round-trip tests remain the backstop there.
//
// Excluded from the persistent-field floor: func- and interface-typed
// fields (callbacks are code, the rebinder doctrine), and engine-extra
// handles (metrics registries, flight recorders, traces, idlers) that
// the engine checkpoints separately or rebuilds on attach.
func StateCoverPass() *Pass {
	const name = "statecover"
	return &Pass{
		Name: name,
		Doc:  "sim.Stater persistent fields must be saved+loaded in matching order/types, //cfm:rebuilt, or //cfm:no-save <reason>",
		Run: func(t *Target, r *Reporter) {
			sc := &stateCover{
				pass:     name,
				t:        t,
				r:        r,
				effects:  newEffectMemo(),
				pairSeen: make(map[[2]*types.Func]bool),
			}
			for _, file := range t.Files {
				for _, decl := range file.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							sc.checkType(ts)
						}
					}
				}
			}
		},
	}
}

type stateCover struct {
	pass     string
	t        *Target
	r        *Reporter
	effects  *effectMemo
	pairSeen map[[2]*types.Func]bool
}

// tickRoots are the engine entry points whose call graphs advance
// simulation state between checkpoints.
var tickRoots = [...]string{"Tick", "TickShard", "FinishShards", "FinishEpoch"}

// checkType applies both halves of the contract to one Stater type.
func (sc *stateCover) checkType(ts *ast.TypeSpec) {
	if ts.Assign.IsValid() {
		return // alias: the canonical declaration carries the obligation
	}
	obj, ok := sc.t.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
		return
	}
	if !sc.t.hasStateMethod(obj, "SaveState", "StateEncoder") ||
		!sc.t.hasStateMethod(obj, "LoadState", "StateDecoder") {
		return
	}
	saveFD := sc.t.methodDecl(obj, "SaveState")
	loadFD := sc.t.methodDecl(obj, "LoadState")
	if saveFD == nil || loadFD == nil || saveFD.Body == nil || loadFD.Body == nil {
		return // inherited via embedding: the declaring type is checked
	}

	saved := sc.mentions(saveFD, true)
	loaded := sc.mentions(loadFD, false)
	sc.coverage(ts, obj, saved, loaded)
	sc.symmetry(obj, saveFD, loadFD)
}

// mentions collects the depth-1 receiver fields a Save/LoadState graph
// touches: any recv.F selector in the method body, its closures, or a
// same-type helper method it calls (c.loadPrimitive(dec, p)). With
// codecOnly set it follows only the helpers handed the encoder or
// decoder, as it does for SaveState: a helper without the encoder (one
// that settles lazily kept state before the encode, say) reads fields
// but cannot write them to the snapshot. LoadState follows every
// helper, since a rebuild (refreshSets, say) needs no decoder.
func (sc *stateCover) mentions(fd *ast.FuncDecl, codecOnly bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	sc.collectMentions(sc.t, fd, out, make(map[*ast.FuncDecl]bool), 0, codecOnly)
	return out
}

// passesCodec reports whether call hands a *sim.StateEncoder or
// *sim.StateDecoder to its callee.
func passesCodec(tt *Target, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if ptr, ok := tt.Info.TypeOf(arg).(*types.Pointer); ok &&
			(isSimNamed(ptr.Elem(), "StateEncoder") || isSimNamed(ptr.Elem(), "StateDecoder")) {
			return true
		}
	}
	return false
}

func (sc *stateCover) collectMentions(tt *Target, fd *ast.FuncDecl, out map[*types.Var]bool, visited map[*ast.FuncDecl]bool, depth int, codecOnly bool) {
	if fd == nil || fd.Body == nil || visited[fd] || depth > 4 {
		return
	}
	visited[fd] = true
	recv := tt.receiverObj(fd)
	if recv == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && tt.Info.Uses[id] == types.Object(recv) {
				if v, ok := tt.Info.Uses[n.Sel].(*types.Var); ok && v.IsField() {
					out[v] = true
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || tt.Info.Uses[id] != types.Object(recv) {
				return true
			}
			if codecOnly && !passesCodec(tt, n) {
				return true
			}
			if fn := tt.staticCallee(n); fn != nil {
				callee, ct := tt.declOf(fn)
				sc.collectMentions(ct, callee, out, visited, depth+1, codecOnly)
			}
		}
		return true
	})
}

// persistentFields walks the tick graph rooted at obj's engine entry
// points and returns the receiver fields it may write, with the
// position of one observed write each.
func (sc *stateCover) persistentFields(obj *types.TypeName) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos)
	visited := make(map[*ast.FuncDecl]bool)
	for _, root := range tickRoots {
		fd := sc.t.methodDecl(obj, root)
		if fd == nil {
			continue
		}
		sc.collectFieldWrites(sc.t, fd, sc.t.receiverObj(fd), out, visited, 0)
	}
	return out
}

// collectFieldWrites records which depth-1 fields of recv's struct fd's
// body may write, following aliases (st := &p.stage[s]) and resolvable
// callees. Closure bodies are skipped: they run in whichever graph
// invokes them.
func (sc *stateCover) collectFieldWrites(tt *Target, fd *ast.FuncDecl, recv *types.Var, out map[*types.Var]token.Pos, visited map[*ast.FuncDecl]bool, depth int) {
	if fd == nil || fd.Body == nil || recv == nil || visited[fd] || depth > 6 {
		return
	}
	visited[fd] = true

	// origin env: local object → the receiver field its storage derives
	// from. A couple of passes propagate chains of aliases.
	env := make(map[types.Object]*types.Var)
	for range 3 {
		changed := false
		inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := tt.Info.Defs[id]
					if obj == nil {
						obj = tt.Info.Uses[id]
					}
					if obj == nil || env[obj] != nil {
						continue
					}
					if f, _ := fieldOrigin(tt, env, recv, n.Rhs[i]); f != nil {
						env[obj] = f
						changed = true
					}
				}
			case *ast.RangeStmt:
				id, ok := n.Value.(*ast.Ident)
				if !ok {
					return
				}
				obj := tt.Info.Defs[id]
				if obj == nil {
					obj = tt.Info.Uses[id]
				}
				if obj == nil || env[obj] != nil {
					return
				}
				if f, _ := fieldOrigin(tt, env, recv, n.X); f != nil {
					env[obj] = f
					changed = true
				}
			}
		})
		if !changed {
			break
		}
	}

	record := func(f *types.Var, pos token.Pos) {
		if f != nil {
			if _, ok := out[f]; !ok {
				out[f] = pos
			}
		}
	}
	writeTarget := func(e ast.Expr) {
		if _, bare := e.(*ast.Ident); bare {
			return // rebinding a local
		}
		f, _ := fieldOrigin(tt, env, recv, e)
		record(f, e.Pos())
	}

	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				writeTarget(lhs)
			}
		case *ast.IncDecStmt:
			writeTarget(n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := tt.Info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "copy", "delete", "clear":
						if len(n.Args) > 0 {
							f, _ := fieldOrigin(tt, env, recv, n.Args[0])
							record(f, n.Pos())
						}
					}
					return
				}
			}
			fn := tt.staticCallee(n)
			if fn == nil {
				return // dynamic dispatch: optimistic frontier
			}
			callee, ct := tt.declOf(fn)
			if callee == nil {
				return
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				f, isRecv := fieldOrigin(tt, env, recv, sel.X)
				switch {
				case isRecv:
					sc.collectFieldWrites(ct, callee, ct.receiverObj(callee), out, visited, depth+1)
				case f != nil:
					if sc.effects.writesObj(ct, callee, ct.receiverObj(callee)) {
						record(f, n.Pos())
					}
				}
			}
			params := ct.paramObjs(callee)
			for i, arg := range n.Args {
				if i >= len(params) || params[i] == nil {
					continue
				}
				f, isRecv := fieldOrigin(tt, env, recv, arg)
				switch {
				case isRecv:
					sc.collectFieldWrites(ct, callee, params[i], out, visited, depth+1)
				case f != nil && writableThrough(params[i].Type()):
					if sc.effects.writesObj(ct, callee, params[i]) {
						record(f, arg.Pos())
					}
				}
			}
		}
	})
}

// fieldOrigin resolves which depth-1 receiver field an expression's
// storage is rooted in. isRecv reports that the expression denotes the
// receiver itself.
func fieldOrigin(tt *Target, env map[types.Object]*types.Var, recv *types.Var, e ast.Expr) (field *types.Var, isRecv bool) {
	switch x := e.(type) {
	case *ast.Ident:
		obj := tt.Info.Uses[x]
		if obj == nil {
			obj = tt.Info.Defs[x]
		}
		if obj == types.Object(recv) {
			return nil, true
		}
		if obj != nil {
			return env[obj], false
		}
		return nil, false
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := tt.Info.Uses[id].(*types.PkgName); isPkg {
				return nil, false
			}
		}
		f, fromRecv := fieldOrigin(tt, env, recv, x.X)
		if fromRecv {
			if v, ok := tt.Info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				return v, false
			}
			return nil, false
		}
		return f, false
	case *ast.IndexExpr:
		return fieldOrigin(tt, env, recv, x.X)
	case *ast.IndexListExpr:
		return fieldOrigin(tt, env, recv, x.X)
	case *ast.StarExpr:
		return fieldOrigin(tt, env, recv, x.X)
	case *ast.ParenExpr:
		return fieldOrigin(tt, env, recv, x.X)
	case *ast.SliceExpr:
		return fieldOrigin(tt, env, recv, x.X)
	case *ast.UnaryExpr:
		return fieldOrigin(tt, env, recv, x.X)
	case *ast.TypeAssertExpr:
		return fieldOrigin(tt, env, recv, x.X)
	}
	return nil, false
}

// coverage reports per-field verdicts for one Stater type.
func (sc *stateCover) coverage(ts *ast.TypeSpec, obj *types.TypeName, saved, loaded map[*types.Var]bool) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	persistent := sc.persistentFields(obj)
	tname := ts.Name.Name
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			fobj, ok := sc.t.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if excludedFromCoverage(fobj.Type()) {
				continue
			}
			label := tname + "." + name.Name
			isSaved, isLoaded := saved[fobj], loaded[fobj]
			noSaveReason, hasNoSave := fieldAnnotation(f, "no-save")
			_, hasRebuilt := fieldAnnotation(f, "rebuilt")
			if hasNoSave {
				switch {
				case noSaveReason == "":
					sc.r.Reportf(sc.pass, f.Pos(), "%s: bare //cfm:no-save; state why a checkpoint may drop the field (//cfm:no-save <reason>)", label)
				case isSaved && isLoaded:
					sc.r.Reportf(sc.pass, f.Pos(), "%s carries //cfm:no-save but SaveState does encode it: the waiver is stale — drop the annotation or stop encoding the field", label)
				}
				continue
			}
			if hasRebuilt && isSaved {
				sc.r.Reportf(sc.pass, f.Pos(), "%s is marked //cfm:rebuilt but SaveState encodes it: the marker is stale — drop it or stop encoding the field", label)
				continue
			}
			wpos, isPersistent := persistent[fobj]
			if !isPersistent {
				continue
			}
			switch {
			case isSaved && isLoaded:
				// covered
			case isLoaded && !isSaved:
				if !hasRebuilt {
					sc.r.Reportf(sc.pass, f.Pos(), "%s is rebuilt in LoadState without being encoded in SaveState; mark the field //cfm:rebuilt to make the derived-state contract explicit", label)
				}
			case isSaved && !isLoaded:
				sc.r.Reportf(sc.pass, f.Pos(), "%s is encoded in SaveState but never restored in LoadState: the snapshot bytes are written and thrown away on resume", label)
			default:
				sc.r.Reportf(sc.pass, f.Pos(), "persistent field %s (tick graph writes it at %s) is neither encoded in SaveState nor restored in LoadState: a checkpoint would silently drop it — encode it, rebuild it (//cfm:rebuilt), or waive //cfm:no-save <reason>", label, sc.t.Fset.Position(wpos))
			}
		}
	}
}

// excludedFromCoverage reports field types outside the persistence
// contract: callbacks are code (rebinder doctrine), interfaces are
// dynamic wiring, and observability handles (metrics, flight recorder,
// trace, idler) are checkpointed as engine extras or rebuilt on attach.
func excludedFromCoverage(typ types.Type) bool {
	if _, ok := typ.Underlying().(*types.Signature); ok {
		return true
	}
	if types.IsInterface(typ) {
		return true
	}
	t := typ
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil {
		return false
	}
	switch o.Pkg().Path() {
	case "cfm/internal/metrics", "cfm/internal/flight":
		return true
	case simPkgPath:
		return o.Name() == "Trace" || o.Name() == "Idler"
	}
	return false
}

// --- save/load symmetry -------------------------------------------------

// codecToks maps StateEncoder/StateDecoder method names to trace
// tokens. Count normalizes to int: enc.Int(len(x)) pairs with
// dec.Count().
var codecToks = map[string]string{
	"U64": "u64", "I64": "i64", "Int": "int", "Count": "int",
	"Slot": "slot", "Bool": "bool", "Bytes32": "bytes",
	"String": "string", "RNG": "rng",
}

// codecIgnore are codec methods that move no state.
var codecIgnore = map[string]bool{"Err": true, "Failf": true, "Remaining": true, "Bytes": true}

// stateTok is one step of a codec trace.
type stateTok struct {
	kind string // primitive token, "loop", "branch", or "h:<base>"
	pos  token.Pos
	fn   *types.Func // helper tokens: the resolved callee
	argI int         // helper tokens: which argument carried the codec
	sub  []stateTok  // loop body
	arms [][]stateTok
}

func (tok stateTok) describe() string {
	switch {
	case tok.kind == "loop":
		return "a loop"
	case tok.kind == "branch":
		return "a conditional"
	case strings.HasPrefix(tok.kind, "h:"):
		return "helper \"" + tok.kind[2:] + "\""
	default:
		return tok.kind
	}
}

// traceBuilder extracts the codec call sequence of one function.
type traceBuilder struct {
	t     *Target
	codec types.Object
	ok    bool
}

// buildTrace returns fd's codec trace. ok=false means the trace
// escaped the model and the symmetry check must be skipped.
func buildTrace(t *Target, fd *ast.FuncDecl, codec *types.Var) ([]stateTok, bool) {
	if codec == nil {
		return nil, true
	}
	b := &traceBuilder{t: t, codec: codec, ok: true}
	toks := b.stmts(fd.Body.List)
	return toks, b.ok
}

func (b *traceBuilder) bail() { b.ok = false }

func (b *traceBuilder) isCodec(id *ast.Ident) bool {
	obj := b.t.Info.Uses[id]
	if obj == nil {
		obj = b.t.Info.Defs[id]
	}
	return obj != nil && obj == b.codec
}

func (b *traceBuilder) containsCodec(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && b.isCodec(id) {
			found = true
		}
		return !found
	})
	return found
}

func (b *traceBuilder) stmts(list []ast.Stmt) []stateTok {
	var out []stateTok
	for _, s := range list {
		if !b.ok {
			return nil
		}
		out = append(out, b.stmt(s)...)
	}
	return out
}

func (b *traceBuilder) stmt(s ast.Stmt) []stateTok {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.ExprStmt:
		return b.scanExpr(s.X)
	case *ast.AssignStmt:
		var out []stateTok
		for _, e := range s.Lhs {
			out = append(out, b.scanExpr(e)...)
		}
		for _, e := range s.Rhs {
			out = append(out, b.scanExpr(e)...)
		}
		return out
	case *ast.DeclStmt:
		var out []stateTok
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						out = append(out, b.scanExpr(v)...)
					}
				}
			}
		}
		return out
	case *ast.IncDecStmt:
		return b.scanExpr(s.X)
	case *ast.SendStmt:
		var out []stateTok
		out = append(out, b.scanExpr(s.Chan)...)
		return append(out, b.scanExpr(s.Value)...)
	case *ast.ReturnStmt:
		var out []stateTok
		for _, e := range s.Results {
			out = append(out, b.scanExpr(e)...)
		}
		return out
	case *ast.BlockStmt:
		return b.stmts(s.List)
	case *ast.LabeledStmt:
		return b.stmt(s.Stmt)
	case *ast.IfStmt:
		out := b.stmt(s.Init)
		out = append(out, b.scanExpr(s.Cond)...)
		arms := [][]stateTok{b.stmts(s.Body.List)}
		if s.Else != nil {
			arms = append(arms, b.stmt(s.Else))
		}
		return appendBranch(out, arms, s.Pos())
	case *ast.ForStmt:
		out := b.stmt(s.Init)
		if s.Cond != nil {
			out = append(out, b.scanExpr(s.Cond)...)
		}
		out = append(out, b.stmt(s.Post)...)
		return appendLoop(out, b.stmts(s.Body.List), s.Pos())
	case *ast.RangeStmt:
		out := b.scanExpr(s.X)
		return appendLoop(out, b.stmts(s.Body.List), s.Pos())
	case *ast.SwitchStmt:
		out := b.stmt(s.Init)
		if s.Tag != nil {
			out = append(out, b.scanExpr(s.Tag)...)
		}
		var arms [][]stateTok
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				arms = append(arms, b.stmts(cc.Body))
			}
		}
		return appendBranch(out, arms, s.Pos())
	case *ast.TypeSwitchStmt:
		out := b.stmt(s.Init)
		out = append(out, b.stmt(s.Assign)...)
		var arms [][]stateTok
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				arms = append(arms, b.stmts(cc.Body))
			}
		}
		return appendBranch(out, arms, s.Pos())
	case *ast.DeferStmt:
		if b.containsCodec(s.Call) {
			b.bail() // deferred codec work runs out of sequence
		}
		return nil
	case *ast.GoStmt:
		if b.containsCodec(s.Call) {
			b.bail()
		}
		return nil
	case *ast.SelectStmt:
		if b.containsCodec(s) {
			b.bail()
		}
		return nil
	case *ast.BranchStmt, *ast.EmptyStmt:
		return nil
	default:
		if b.containsCodec(s) {
			b.bail()
		}
		return nil
	}
}

// appendLoop wraps body in a loop token, collapsing a loop whose only
// content is another loop: nested framing (per-page inner loops) and a
// flat replay loop move the same byte sequence.
func appendLoop(out, body []stateTok, pos token.Pos) []stateTok {
	if len(body) == 0 {
		return out
	}
	if len(body) == 1 && body[0].kind == "loop" {
		return append(out, body[0])
	}
	return append(out, stateTok{kind: "loop", pos: pos, sub: body})
}

// appendBranch wraps arms in a branch token, dropping empty arms: a
// guard that merely skips (continue / zero the field) moves no bytes,
// so `if ok { save }` pairs with `if ok { load } else { reset }`.
func appendBranch(out []stateTok, arms [][]stateTok, pos token.Pos) []stateTok {
	var kept [][]stateTok
	for _, a := range arms {
		if len(a) > 0 {
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 {
		return out
	}
	return append(out, stateTok{kind: "branch", pos: pos, arms: kept})
}

// scanExpr walks an expression in syntactic order collecting codec
// tokens; a codec reference outside the modeled positions bails.
func (b *traceBuilder) scanExpr(e ast.Expr) []stateTok {
	var out []stateTok
	ast.Inspect(e, func(n ast.Node) bool {
		if !b.ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			out = append(out, b.call(n)...)
			return false
		case *ast.FuncLit:
			if b.containsCodec(n) {
				b.bail()
			}
			return false
		case *ast.Ident:
			if b.isCodec(n) {
				b.bail() // codec escaping into data flow
			}
		}
		return true
	})
	return out
}

// call classifies one call: a codec method (token or ignore), a helper
// receiving the codec (named token, candidates for recursive pairing),
// or an ordinary call to scan through.
func (b *traceBuilder) call(c *ast.CallExpr) []stateTok {
	if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && b.isCodec(id) {
			var out []stateTok
			for _, a := range c.Args {
				out = append(out, b.scanExpr(a)...)
			}
			if codecIgnore[sel.Sel.Name] {
				return out
			}
			kind, known := codecToks[sel.Sel.Name]
			if !known {
				b.bail()
				return nil
			}
			return append(out, stateTok{kind: kind, pos: c.Pos()})
		}
	}
	codecArg := -1
	for i, a := range c.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && b.isCodec(id) {
			codecArg = i
			break
		}
	}
	if codecArg < 0 {
		var out []stateTok
		if fl, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
			if b.containsCodec(fl) {
				b.bail()
				return nil
			}
		} else {
			out = append(out, b.scanExpr(c.Fun)...)
		}
		for _, a := range c.Args {
			out = append(out, b.scanExpr(a)...)
		}
		return out
	}
	// A helper call carrying the codec. Everything else on the line is
	// scanned too (nested codec calls in other arguments).
	var out []stateTok
	for i, a := range c.Args {
		if i == codecArg {
			continue
		}
		out = append(out, b.scanExpr(a)...)
	}
	fn := b.t.staticCallee(c)
	if fn == nil {
		b.bail() // func value (hook field) invoked with the codec
		return nil
	}
	return append(out, stateTok{kind: "h:" + helperBase(fn.Name()), pos: c.Pos(), fn: fn, argI: codecArg})
}

// helperBase normalizes a save/load helper name for pairing:
// SaveBlock/LoadBlock → "block", saveRemoteReq/loadRemoteReq →
// "remotereq", Frontend.saveState/loadState → "state". A name without
// the prefix pairs only with itself.
func helperBase(name string) string {
	lower := strings.ToLower(name)
	for _, prefix := range []string{"save", "load"} {
		if rest, ok := strings.CutPrefix(lower, prefix); ok && rest != "" {
			return rest
		}
	}
	return lower
}

// symmetry builds and compares both traces and reports the first
// divergence.
func (sc *stateCover) symmetry(obj *types.TypeName, saveFD, loadFD *ast.FuncDecl) {
	saveParams := sc.t.paramObjs(saveFD)
	loadParams := sc.t.paramObjs(loadFD)
	if len(saveParams) != 1 || len(loadParams) != 1 {
		return
	}
	saveTr, okS := buildTrace(sc.t, saveFD, saveParams[0])
	loadTr, okL := buildTrace(sc.t, loadFD, loadParams[0])
	if !okS || !okL {
		return // escaped the model: round-trip tests are the backstop
	}
	sc.compareTraces(obj.Name(), saveTr, loadTr)
}

// compareTraces reports at most one mismatch per Stater pair. Returns
// whether the traces matched.
func (sc *stateCover) compareTraces(tname string, save, load []stateTok) bool {
	n := min(len(save), len(load))
	for i := range n {
		s, l := save[i], load[i]
		if s.kind != l.kind {
			sc.r.Reportf(sc.pass, l.pos, "SaveState/LoadState for %s diverge: SaveState writes %s (%s) where LoadState reads %s", tname, s.describe(), sc.where(s.pos), l.describe())
			return false
		}
		switch {
		case s.kind == "loop":
			if !sc.compareTraces(tname, s.sub, l.sub) {
				return false
			}
		case s.kind == "branch":
			if len(s.arms) != len(l.arms) {
				sc.r.Reportf(sc.pass, l.pos, "SaveState/LoadState for %s diverge: a conditional moves state in %d arm(s) on save (%s) but %d on load", tname, len(s.arms), sc.where(s.pos), len(l.arms))
				return false
			}
			for a := range s.arms {
				if !sc.compareTraces(tname, s.arms[a], l.arms[a]) {
					return false
				}
			}
		case strings.HasPrefix(s.kind, "h:"):
			if !sc.verifyHelperPair(tname, s, l) {
				return false
			}
		}
	}
	switch {
	case len(save) > n:
		sc.r.Reportf(sc.pass, save[n].pos, "SaveState/LoadState for %s diverge: SaveState writes %s that LoadState never reads", tname, save[n].describe())
		return false
	case len(load) > n:
		sc.r.Reportf(sc.pass, load[n].pos, "SaveState/LoadState for %s diverge: LoadState reads %s that SaveState never wrote", tname, load[n].describe())
		return false
	}
	return true
}

// verifyHelperPair recursively checks a matched save/load helper pair
// when both sides resolve to module-internal declarations whose traces
// stay in the model; anything else is accepted on the name match.
func (sc *stateCover) verifyHelperPair(tname string, s, l stateTok) bool {
	if s.fn == nil || l.fn == nil {
		return true
	}
	key := [2]*types.Func{s.fn, l.fn}
	if sc.pairSeen[key] {
		return true
	}
	sc.pairSeen[key] = true
	saveFD, st := sc.t.declOf(s.fn)
	loadFD, lt := sc.t.declOf(l.fn)
	if saveFD == nil || loadFD == nil {
		return true
	}
	sp := st.paramObjs(saveFD)
	lp := lt.paramObjs(loadFD)
	if s.argI >= len(sp) || l.argI >= len(lp) || sp[s.argI] == nil || lp[l.argI] == nil {
		return true
	}
	if !isCodecParam(sp[s.argI], "StateEncoder") || !isCodecParam(lp[l.argI], "StateDecoder") {
		return true // generic plumbing (SaveQueue's func param): name match is enough
	}
	saveTr, okS := buildTrace(st, saveFD, sp[s.argI])
	loadTr, okL := buildTrace(lt, loadFD, lp[l.argI])
	if !okS || !okL {
		return true
	}
	return sc.compareTraces(tname+" (inside "+s.fn.Name()+"/"+l.fn.Name()+")", saveTr, loadTr)
}

// isCodecParam reports whether v is a *sim.StateEncoder/StateDecoder.
func isCodecParam(v *types.Var, name string) bool {
	ptr, ok := v.Type().Underlying().(*types.Pointer)
	return ok && isSimNamed(ptr.Elem(), name)
}

// where renders a position for inclusion inside a message.
func (sc *stateCover) where(pos token.Pos) string {
	p := sc.t.Fset.Position(pos)
	return p.Filename + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
