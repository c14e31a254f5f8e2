// SSA-lite IR: each module function is lowered to flat fact lists — heap
// allocation sites, call sites, value-flow edges, store sites, and map-range
// order effects — that the inter-procedural passes consume. The value model
// is deliberately coarse so the whole module lowers in one linear walk:
//
//   - a value is keyed by its types.Object (locals, parameters, named
//     results, globals — closures captured variables share the enclosing
//     function's objects, so flow through captures is free);
//   - struct fields are field-global (one key per *types.Var field,
//     instance-insensitive), which is exactly the granularity the dtaint
//     sinks need ("does anything tainted ever reach Stats.Cycles");
//   - function results are keyed per (function, index), and call sites wire
//     argument keys to parameter objects of every resolved callee, so the
//     flow graph is inter-procedural by construction;
//   - containers (slices, maps, channels) are summarized by their root
//     value: storing into s[i], sending into ch, or appending to s taints
//     s itself.
//
// The resulting facts are flow-insensitive (no program-point ordering within
// a function) — a forward may-analysis: if a flow exists on any path, the
// engine sees it. That is the right polarity for both passes, which prove
// absence (no allocation, no taint reaching a sink).
package vetting

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// flowKey identifies one abstract value in the module-wide flow graph.
// Exactly one field is set.
type flowKey struct {
	obj   types.Object  // variable, parameter, named result, global, field
	fn    *types.Func   // with idx: result idx of a declared function
	lit   *ast.FuncLit  // with idx: result idx of a closure
	ext   *ast.CallExpr // result of an external/unresolved call, per site
	idx   int
	field bool // obj is a struct field (field-global key)
}

func objK(o types.Object) flowKey { return flowKey{obj: o} }
func fieldK(f *types.Var) flowKey { return flowKey{obj: f, field: true} }
func retK(fn *types.Func, i int) flowKey {
	return flowKey{fn: fn, idx: i}
}
func litRetK(l *ast.FuncLit, i int) flowKey { return flowKey{lit: l, idx: i} }

// extRetK keys the result of one external (or unresolved) call site. The
// arguments' keys still flow through such calls (context.WithTimeout wraps
// its parent), but the site itself is also a value origin — time.Now() has
// no arguments, yet its result is a fresh wall-clock reading. The purity
// pass sources these keys; nothing else does, so adding them never creates
// a new path between existing keys.
func extRetK(call *ast.CallExpr) flowKey { return flowKey{ext: call} }

func (k flowKey) String() string {
	switch {
	case k.obj != nil && k.field:
		return "field " + k.obj.Name()
	case k.obj != nil:
		return k.obj.Name()
	case k.fn != nil:
		return fmt.Sprintf("%s#ret%d", k.fn.Name(), k.idx)
	case k.lit != nil:
		return fmt.Sprintf("closure#ret%d", k.idx)
	case k.ext != nil:
		return "extcall#ret"
	}
	return "<nil>"
}

// allocKind classifies a hot-path hazard site.
type allocKind string

// Hot-path hazard kinds. Most allocate; map accesses and defers are
// bundled in because the fast-path contract (DESIGN.md §9) bans them from
// the per-block loop for the same reason — unbounded, cache-hostile work.
const (
	allocMake      allocKind = "make"
	allocNew       allocKind = "new"
	allocAppend    allocKind = "append (may grow)"
	allocComposite allocKind = "escaping composite literal"
	allocClosure   allocKind = "closure allocation"
	allocString    allocKind = "string concatenation/conversion"
	allocIface     allocKind = "interface conversion (boxes the value)"
	allocMapAccess allocKind = "map access"
	allocMapRange  allocKind = "map iteration"
	allocDefer     allocKind = "defer"
	allocGo        allocKind = "goroutine spawn"
)

// allocSite is one hazard the hotpath pass may report.
type allocSite struct {
	pos     token.Position
	kind    allocKind
	detail  string
	inPanic bool // inside a panic(...) argument: a death path, never steady state
}

// flowEdge is one may-flow: a value of src may become (part of) dst.
type flowEdge struct {
	src, dst flowKey
	pos      token.Position
}

// storeSite records a write whose LHS is a struct field — the dtaint pass
// matches these against the configured Stats rules.
type storeSite struct {
	pos   token.Position
	field *types.Var // the field written
	srcs  []flowKey  // keys of the stored value
}

// callRec records one resolved call with per-argument value keys, so the
// dtaint pass can test each call site into a sink package individually.
type callRec struct {
	site    *CallSite
	argKeys [][]flowKey
}

// orderEffect is one order-dependent result of a map range: the key that
// becomes tainted by iteration order.
type orderEffect struct {
	key  flowKey
	pos  token.Position
	what string
}

// mapRange records one `range` over a map and its order effects.
type mapRange struct {
	pos     token.Position
	waived  bool // carries an //ispy:ordered waiver (still a taint source)
	effects []orderEffect
}

// funcIR is the lowered form of one module function.
type funcIR struct {
	node      *Node
	allocs    []allocSite
	flows     []flowEdge
	stores    []storeSite
	calls     []callRec
	mapRanges []mapRange
}

// Analysis bundles the call graph and the per-function IR; vetting.Run
// builds it once and hands it to the inter-procedural passes.
type Analysis struct {
	pkgs  []*Package
	graph *CallGraph
	irs   map[*Node]*funcIR
}

// NewAnalysis builds the call graph and lowers every module function.
// Closures get their own funcIR (registered under their call-graph node) so
// the hotpath pass attributes a closure body's allocations to the closure,
// not its enclosing function.
func NewAnalysis(pkgs []*Package, ws *waiverSet) *Analysis {
	a := &Analysis{
		pkgs:  pkgs,
		graph: BuildCallGraph(pkgs),
		irs:   make(map[*Node]*funcIR),
	}
	for _, n := range a.graph.moduleNodes() {
		if n.Lit != nil {
			continue // closures lower during their enclosing declaration
		}
		lowerFunc(a, n, ws)
	}
	// Package-level closures (var initializers) have no enclosing
	// declaration; lower each outermost one directly.
	for _, n := range a.graph.moduleNodes() {
		if n.Lit != nil && n.Parent == nil && a.irs[n] == nil {
			lowerFunc(a, n, ws)
		}
	}
	return a
}

// Graph returns the call graph.
func (a *Analysis) Graph() *CallGraph { return a.graph }

// irOf returns the IR of a node (nil for external functions).
func (a *Analysis) irOf(n *Node) *funcIR { return a.irs[n] }

// lowering walks one declared function including nested closures.
type lowering struct {
	p     *Package
	g     *CallGraph
	ws    *waiverSet
	irs   map[*Node]*funcIR
	panic int // depth of enclosing panic(...) arguments
	// cur tracks the innermost function node (decl or closure) so facts
	// attribute to the right IR and returns to the right result keys.
	cur []*Node
}

func lowerFunc(a *Analysis, n *Node, ws *waiverSet) {
	lw := &lowering{p: n.Pkg, g: a.graph, ws: ws, irs: a.irs, cur: []*Node{n}}
	lw.irs[n] = &funcIR{node: n}
	lw.namedResultFlows(n)
	if body := n.Body(); body != nil {
		lw.walk(body, nil)
	}
}

// ir returns the IR under construction for the innermost function.
func (lw *lowering) ir() *funcIR { return lw.irs[lw.cur[len(lw.cur)-1]] }

// namedResultFlows wires a function's named results to its result keys so a
// bare `return` still propagates.
func (lw *lowering) namedResultFlows(n *Node) {
	sig := n.Sig()
	if sig == nil {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Name() == "" {
			continue
		}
		ir := lw.ir()
		ir.flows = append(ir.flows, flowEdge{
			src: objK(r), dst: lw.resultKey(n, i), pos: lw.p.Fset.Position(r.Pos()),
		})
	}
}

func (lw *lowering) resultKey(n *Node, i int) flowKey {
	if n.Lit != nil {
		return litRetK(n.Lit, i)
	}
	return retK(n.Fn, i)
}

func (lw *lowering) pos(n ast.Node) token.Position { return lw.p.Fset.Position(n.Pos()) }

func (lw *lowering) alloc(n ast.Node, kind allocKind, detail string) {
	ir := lw.ir()
	ir.allocs = append(ir.allocs, allocSite{
		pos: lw.pos(n), kind: kind, detail: detail, inPanic: lw.panic > 0,
	})
}

func (lw *lowering) flow(srcs []flowKey, dst flowKey, at ast.Node) {
	pos := lw.pos(at)
	ir := lw.ir()
	for _, s := range srcs {
		ir.flows = append(ir.flows, flowEdge{src: s, dst: dst, pos: pos})
	}
}

// walk is the single recursive pass. stack carries the enclosing statement
// nodes (innermost last) for the collect-then-sort check.
func (lw *lowering) walk(n ast.Node, stack []ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		lw.alloc(n, allocClosure, "func literal") // charged to the creator
		if node := lw.g.LitNode(n); node != nil {
			lw.cur = append(lw.cur, node)
			lw.irs[node] = &funcIR{node: node}
			lw.namedResultFlows(node)
			lw.walk(n.Body, nil)
			lw.cur = lw.cur[:len(lw.cur)-1]
		}
		return

	case *ast.BlockStmt:
		for _, s := range n.List {
			lw.walk(s, append(stack, n))
		}
		return
	case *ast.CaseClause:
		for _, e := range n.List {
			lw.walk(e, append(stack, n))
		}
		for _, s := range n.Body {
			lw.walk(s, append(stack, n))
		}
		return
	case *ast.CommClause:
		lw.walk(n.Comm, append(stack, n))
		for _, s := range n.Body {
			lw.walk(s, append(stack, n))
		}
		return

	case *ast.AssignStmt:
		lw.assign(n)
	case *ast.ReturnStmt:
		cur := lw.cur[len(lw.cur)-1]
		for i, e := range n.Results {
			if len(n.Results) == 1 {
				if tup, ok := lw.p.Info.TypeOf(e).(*types.Tuple); ok && tup.Len() > 1 {
					// return f(): wire every result through.
					for j := 0; j < tup.Len(); j++ {
						lw.flow(lw.exprKeys(e), lw.resultKey(cur, j), e)
					}
					break
				}
			}
			lw.flow(lw.exprKeys(e), lw.resultKey(cur, i), e)
		}
	case *ast.SendStmt:
		for _, ck := range lw.exprKeys(n.Chan) {
			lw.flow(lw.exprKeys(n.Value), ck, n)
		}
	case *ast.GoStmt:
		lw.alloc(n, allocGo, "go statement")
	case *ast.DeferStmt:
		lw.alloc(n, allocDefer, "defer statement")
	case *ast.RangeStmt:
		lw.rangeStmt(n, stack)
		// Children handled below (walk body etc. via generic recursion).

	case *ast.CallExpr:
		if lw.isPanicCall(n) {
			lw.panic++
			for _, c := range childNodes(n) {
				lw.walk(c, stack)
			}
			lw.panic--
			return
		}
		lw.call(n)
	case *ast.CompositeLit:
		lw.composite(n, false)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				lw.composite(cl, true)
				// Recurse into the literal's elements but not re-report it.
				for _, e := range cl.Elts {
					lw.walk(e, stack)
				}
				return
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isStringType(lw.p.Info.TypeOf(n)) {
			lw.alloc(n, allocString, types.ExprString(n))
		}
	case *ast.IndexExpr:
		if t := lw.p.Info.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				lw.alloc(n, allocMapAccess, types.ExprString(n))
			}
		}
	}

	// Generic recursion over children for everything not fully handled.
	for _, c := range childNodes(n) {
		lw.walk(c, appendStmtStack(stack, n))
	}
}

// appendStmtStack grows the statement stack only for nodes that can hold
// statement lists (blocks are handled explicitly above; everything else
// keeps the stack as-is).
func appendStmtStack(stack []ast.Node, n ast.Node) []ast.Node {
	switch n.(type) {
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		return append(stack, n)
	}
	return stack
}

// assign lowers one assignment: flow edges, store sites, and the
// interface-conversion check on the LHS type.
func (lw *lowering) assign(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		var rhs ast.Expr
		switch {
		case len(n.Rhs) == len(n.Lhs):
			rhs = n.Rhs[i]
		case len(n.Rhs) == 1:
			rhs = n.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		var srcs []flowKey
		if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				srcs = lw.callResultKeys(call, i)
			} else {
				srcs = lw.exprKeys(rhs) // comma-ok forms: v, ok := m[k]
			}
		} else {
			srcs = lw.exprKeys(rhs)
		}
		for _, dst := range lw.lvalueKeys(lhs) {
			lw.flow(srcs, dst, n)
		}
		if f := lw.fieldOf(lhs); f != nil {
			ir := lw.ir()
			ir.stores = append(ir.stores, storeSite{
				pos: lw.pos(n), field: f, srcs: srcs,
			})
		}
		lw.ifaceConv(rhs, lw.p.Info.TypeOf(lhs), n.Tok)
	}
}

// ifaceConv reports an implicit interface conversion: a concrete-typed
// value assigned to an interface-typed location.
func (lw *lowering) ifaceConv(rhs ast.Expr, dstType types.Type, tok token.Token) {
	if dstType == nil || !types.IsInterface(dstType) || tok == token.DEFINE {
		return
	}
	st := lw.p.Info.TypeOf(rhs)
	if st == nil || types.IsInterface(st) || isNilExpr(lw.p, rhs) {
		return
	}
	lw.alloc(rhs, allocIface, fmt.Sprintf("%s stored as %s", st, dstType))
}

func isNilExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.IsNil()
}

// call lowers one call expression: allocation classification for builtins
// and conversions, argument→parameter flow for resolved callees, implicit
// interface boxing of arguments, and sink recording hooks (the dtaint pass
// re-reads calls through the graph, so nothing pass-specific happens here).
func (lw *lowering) call(n *ast.CallExpr) {
	// Conversions.
	if tv, ok := lw.p.Info.Types[n.Fun]; ok && tv.IsType() {
		to := tv.Type
		if types.IsInterface(to) {
			from := lw.p.Info.TypeOf(n.Args[0])
			if from != nil && !types.IsInterface(from) && !isNilExpr(lw.p, n.Args[0]) {
				lw.alloc(n, allocIface, fmt.Sprintf("conversion to %s", to))
			}
		}
		if isStringConv(lw.p, n) {
			lw.alloc(n, allocString, types.ExprString(n))
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if b, ok := lw.p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				lw.alloc(n, allocMake, types.ExprString(n))
			case "new":
				lw.alloc(n, allocNew, types.ExprString(n))
			case "append":
				lw.alloc(n, allocAppend, types.ExprString(n.Args[0]))
			case "delete":
				lw.alloc(n, allocMapAccess, "delete("+types.ExprString(n.Args[0])+")")
			}
			return
		}
	}

	site := lw.g.SiteOf(n)
	if site == nil {
		return
	}
	rec := callRec{site: site}
	for _, arg := range n.Args {
		rec.argKeys = append(rec.argKeys, lw.exprKeys(arg))
	}
	ir := lw.ir()
	ir.calls = append(ir.calls, rec)
	// Argument → parameter flow for every resolved module callee, plus
	// implicit interface boxing against the declared signature.
	var declSig *types.Signature
	if t, ok := lw.p.Info.TypeOf(n.Fun).(*types.Signature); ok {
		declSig = t
	}
	if declSig != nil {
		for i, arg := range n.Args {
			var pt types.Type
			switch {
			case i < declSig.Params().Len()-1 || (!declSig.Variadic() && i < declSig.Params().Len()):
				pt = declSig.Params().At(i).Type()
			case declSig.Variadic():
				last := declSig.Params().At(declSig.Params().Len() - 1).Type()
				if sl, ok := last.(*types.Slice); ok && !hasEllipsis(n) {
					pt = sl.Elem()
				} else {
					pt = last
				}
			}
			if pt != nil && types.IsInterface(pt) {
				at := lw.p.Info.TypeOf(arg)
				if at != nil && !types.IsInterface(at) && !isNilExpr(lw.p, arg) {
					lw.alloc(arg, allocIface, fmt.Sprintf("%s passed as %s", at, pt))
				}
			}
		}
	}
	for _, to := range site.Targets {
		sig := to.Sig()
		if sig == nil || to.External() {
			continue
		}
		// Receiver flow.
		if sig.Recv() != nil {
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				lw.flow(lw.exprKeys(sel.X), objK(sig.Recv()), n)
			}
		}
		for i, arg := range n.Args {
			var param *types.Var
			switch {
			case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
				param = sig.Params().At(i)
			case sig.Params().Len() > 0:
				param = sig.Params().At(sig.Params().Len() - 1)
			}
			if param != nil {
				lw.flow(lw.exprKeys(arg), objK(param), arg)
			}
		}
	}
}

func hasEllipsis(n *ast.CallExpr) bool { return n.Ellipsis.IsValid() }

// isPanicCall reports whether n is a call of the panic builtin.
func (lw *lowering) isPanicCall(n *ast.CallExpr) bool {
	id, ok := ast.Unparen(n.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := lw.p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// callResultKeys returns the flow keys of result i of a call.
func (lw *lowering) callResultKeys(call *ast.CallExpr, i int) []flowKey {
	site := lw.g.SiteOf(call)
	if site == nil || len(site.Targets) == 0 {
		// Unresolved/external: results derive from the arguments, plus the
		// site itself as a fresh value origin (extRetK).
		return append(lw.argKeys(call), extRetK(call))
	}
	var out []flowKey
	for _, to := range site.Targets {
		if to.External() {
			out = append(out, lw.argKeys(call)...)
			out = append(out, extRetK(call))
			continue
		}
		if to.Lit != nil {
			out = append(out, litRetK(to.Lit, i))
		} else {
			out = append(out, retK(to.Fn, i))
		}
	}
	return out
}

func (lw *lowering) argKeys(call *ast.CallExpr) []flowKey {
	var out []flowKey
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if lw.p.Info.Selections[sel] != nil {
			out = append(out, lw.exprKeys(sel.X)...)
		}
	}
	for _, a := range call.Args {
		out = append(out, lw.exprKeys(a)...)
	}
	return out
}

// composite lowers a composite literal: escape classification plus
// element→field flow for struct literals.
func (lw *lowering) composite(n *ast.CompositeLit, addressed bool) {
	t := lw.p.Info.TypeOf(n)
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			lw.alloc(n, allocComposite, types.ExprString(n.Type)+" literal")
		default:
			if addressed {
				lw.alloc(n, allocComposite, "&"+types.ExprString(n.Type)+"{...}")
			}
		}
		// Element → field flow for struct literals.
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if f, ok := lw.p.Info.Uses[id].(*types.Var); ok && f.IsField() {
							lw.flow(lw.exprKeys(kv.Value), fieldK(f), kv)
							ir := lw.ir()
							ir.stores = append(ir.stores, storeSite{
								pos: lw.pos(kv), field: f, srcs: lw.exprKeys(kv.Value),
							})
						}
					}
				} else if i < st.NumFields() {
					f := st.Field(i)
					lw.flow(lw.exprKeys(e), fieldK(f), e)
					ir := lw.ir()
					ir.stores = append(ir.stores, storeSite{
						pos: lw.pos(e), field: f, srcs: lw.exprKeys(e),
					})
				}
			}
		}
	}
}

// rangeStmt lowers a range: container→loop-variable flow, map-iteration
// classification, and order-effect extraction for the dtaint sources.
func (lw *lowering) rangeStmt(n *ast.RangeStmt, stack []ast.Node) {
	srcs := lw.exprKeys(n.X)
	for _, v := range []ast.Expr{n.Key, n.Value} {
		if v == nil {
			continue
		}
		for _, dst := range lw.lvalueKeys(v) {
			lw.flow(srcs, dst, n)
		}
	}
	t := lw.p.Info.TypeOf(n.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	pos := lw.pos(n)
	lw.alloc(n, allocMapRange, types.ExprString(n.X))
	ir := lw.ir()
	ir.mapRanges = append(ir.mapRanges, mapRange{
		pos:     pos,
		waived:  lw.ws.hasWaiver(PassDeterminism, pos),
		effects: lw.orderEffects(n, stack),
	})
}

// orderEffects extracts the values whose content depends on map-iteration
// order: append targets with no subsequent sort in the same block (slice
// order mirrors iteration order), non-commutative assignments to variables
// declared outside the loop (last-writer-wins), float accumulation
// (rounding is order-sensitive), and channel sends (delivery order). The
// guarded max/min idiom (`if x > best { best = x }`) and commutative
// integer accumulation are order-free and excluded; stores keyed by the
// range key or any computed key have set semantics and are excluded too
// (two iterations writing the same computed key is the one shape this
// under-approximates).
func (lw *lowering) orderEffects(rs *ast.RangeStmt, stack []ast.Node) []orderEffect {
	p := lw.p
	var out []orderEffect
	add := func(e ast.Expr, what string, at ast.Node) {
		for _, k := range lw.lvalueKeys(e) {
			out = append(out, orderEffect{key: k, pos: lw.pos(at), what: what})
		}
	}
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = p.objectOf(id)
	}
	var appendTargets []ast.Expr
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // closure bodies run later; out of scope (documented)
		case *ast.SendStmt:
			add(n.Chan, "channel send order", n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Rhs) == len(n.Lhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				}
				if call, ok := rhs.(*ast.CallExpr); ok && p.isBuiltin(call, "append") && len(call.Args) > 0 &&
					types.ExprString(lhs) == types.ExprString(call.Args[0]) {
					appendTargets = append(appendTargets, lhs)
					continue
				}
				lw.orderStore(rs, keyObj, n, lhs, n.Tok, &out)
			}
		}
		return true
	})
	for _, tgt := range appendTargets {
		if p.unsortedAfter(rs, stack, []string{types.ExprString(tgt)}) != "" {
			add(tgt, "append order mirrors map-iteration order", tgt)
		}
	}
	return out
}

// orderStore classifies one store inside a map-range body and appends an
// effect when it is order-carrying.
func (lw *lowering) orderStore(rs *ast.RangeStmt, keyObj types.Object, stmt *ast.AssignStmt, lhs ast.Expr, tok token.Token, out *[]orderEffect) {
	p := lw.p
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" || tok == token.DEFINE {
			return
		}
		obj := p.objectOf(l)
		if obj == nil || declaredWithin(obj, rs.Body) {
			return
		}
		if isCommutativeOp(tok) && isIntegerType(obj.Type()) {
			return
		}
		if tok == token.ASSIGN && guardedExtremum(rs, stmt) {
			return
		}
		*out = append(*out, orderEffect{key: objK(obj), pos: lw.pos(stmt),
			what: fmt.Sprintf("last-writer-wins store to %s", l.Name)})
	case *ast.IndexExpr:
		return // set semantics: each key owns its slot
	case *ast.SelectorExpr:
		if f := lw.fieldOf(l); f != nil && !(isCommutativeOp(tok) && isIntegerType(f.Type())) {
			*out = append(*out, orderEffect{key: fieldK(f), pos: lw.pos(stmt),
				what: fmt.Sprintf("order-dependent store to field %s", f.Name())})
		}
	}
}

// guardedExtremum recognizes the max/min idiom: the assignment `v = x` as
// the sole statement of `if x > v { ... }` (or <, >=, <=) is order-free.
func guardedExtremum(rs *ast.RangeStmt, stmt *ast.AssignStmt) bool {
	if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return false
	}
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch cond.Op {
		case token.GTR, token.LSS, token.GEQ, token.LEQ:
		default:
			return true
		}
		if len(ifs.Body.List) != 1 || ifs.Body.List[0] != ast.Stmt(stmt) {
			return true
		}
		// One side of the comparison is the target, the other the stored
		// value.
		vs, xs := types.ExprString(cond.X), types.ExprString(cond.Y)
		tgt, val := types.ExprString(stmt.Lhs[0]), types.ExprString(stmt.Rhs[0])
		if (vs == val && xs == tgt) || (vs == tgt && xs == val) {
			found = true
			return false
		}
		return true
	})
	return found
}

// lvalueKeys returns the keys written by an assignment target: the object
// for identifiers; the field key plus the root object for selectors (a
// tainted field taints its container); the container roots for index
// expressions and dereferences.
func (lw *lowering) lvalueKeys(e ast.Expr) []flowKey {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		if o := lw.p.objectOf(e); o != nil {
			return []flowKey{objK(o)}
		}
	case *ast.SelectorExpr:
		var out []flowKey
		if f := lw.fieldOf(e); f != nil {
			out = append(out, fieldK(f))
		} else if o := lw.p.Info.Uses[e.Sel]; o != nil {
			if _, isVar := o.(*types.Var); isVar {
				out = append(out, objK(o)) // qualified package variable
			}
		}
		out = append(out, lw.lvalueKeys(e.X)...)
		return out
	case *ast.IndexExpr:
		return lw.lvalueKeys(e.X)
	case *ast.StarExpr:
		return lw.lvalueKeys(e.X)
	}
	return nil
}

// fieldOf resolves an expression to the struct field it selects, or nil.
func (lw *lowering) fieldOf(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := lw.p.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// exprKeys returns the abstract values an expression's result may carry.
func (lw *lowering) exprKeys(e ast.Expr) []flowKey {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := lw.p.objectOf(e); o != nil {
			if _, isVar := o.(*types.Var); isVar {
				return []flowKey{objK(o)}
			}
		}
	case *ast.SelectorExpr:
		var out []flowKey
		if f := lw.fieldOf(e); f != nil {
			out = append(out, fieldK(f))
			out = append(out, lw.exprKeys(e.X)...)
			return out
		}
		if o := lw.p.Info.Uses[e.Sel]; o != nil {
			if _, isVar := o.(*types.Var); isVar {
				return []flowKey{objK(o)}
			}
		}
		return lw.exprKeys(e.X)
	case *ast.IndexExpr:
		return append(lw.exprKeys(e.X), lw.exprKeys(e.Index)...)
	case *ast.SliceExpr:
		return lw.exprKeys(e.X)
	case *ast.StarExpr:
		return lw.exprKeys(e.X)
	case *ast.UnaryExpr:
		return lw.exprKeys(e.X) // &x, <-ch, -x
	case *ast.BinaryExpr:
		return append(lw.exprKeys(e.X), lw.exprKeys(e.Y)...)
	case *ast.CallExpr:
		if tv, ok := lw.p.Info.Types[e.Fun]; ok && tv.IsType() {
			return lw.exprKeys(e.Args[0]) // conversion
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := lw.p.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					var out []flowKey
					for _, a := range e.Args {
						out = append(out, lw.exprKeys(a)...)
					}
					return out
				case "len", "cap", "make", "new":
					return nil
				}
				return nil
			}
		}
		return lw.callResultKeys(e, 0)
	case *ast.TypeAssertExpr:
		return lw.exprKeys(e.X)
	case *ast.CompositeLit:
		var out []flowKey
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out = append(out, lw.exprKeys(kv.Value)...)
			} else {
				out = append(out, lw.exprKeys(el)...)
			}
		}
		return out
	}
	return nil
}

// childNodes returns the direct AST children of n (generic recursion).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isStringConv reports string([]byte), []byte(string), []rune(string), and
// string(rune-slice) conversions — all of which copy.
func isStringConv(p *Package, n *ast.CallExpr) bool {
	if len(n.Args) != 1 {
		return false
	}
	to := p.Info.TypeOf(n)
	from := p.Info.TypeOf(n.Args[0])
	if to == nil || from == nil {
		return false
	}
	if isStringType(to) && !isStringType(from) {
		return true
	}
	if isStringType(from) && !isStringType(to) {
		if _, ok := to.Underlying().(*types.Slice); ok {
			return true
		}
	}
	return false
}
