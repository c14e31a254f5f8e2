// Module-wide call graph over go/types: the foundation the inter-procedural
// passes (hotpath, dtaint) stand on. Nodes are the module's function
// declarations plus every function literal (closures analyze like anonymous
// functions; their captured variables are ordinary objects shared with the
// enclosing function, so value flow through captures needs no special
// machinery). Standard-library callees appear as body-less external nodes.
//
// Call sites resolve as follows:
//
//   - static: plain function calls, qualified package calls, and method
//     calls whose receiver has a concrete type (embedding-promoted methods
//     resolve through types.Selection to the actual declaration);
//   - iface: method calls through an interface resolve, class-hierarchy
//     style, to the same-named method of every named type declared in the
//     module whose method set (value or pointer) implements the interface —
//     whether or not that type is ever stored in the interface on the paths
//     the analysis sees, which over-approximates but never misses a module
//     implementation;
//   - dyn: calls through function-typed values (variables, struct fields,
//     parameters, call results) resolve to every module function or closure
//     whose address is taken somewhere with an identical signature. A dyn
//     site with no candidates keeps an empty candidate list; the hotpath
//     pass treats dyn sites as findings in their own right.
//
// The graph is deliberately context-insensitive: one node per function, so
// reachability and dataflow are linear scans over a small module.
package vetting

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Node is one call-graph node: a declared function/method, a function
// literal, or an external (no-body) callee.
type Node struct {
	// Fn is the types object; nil only for function literals.
	Fn *types.Func
	// Lit is the literal for closure nodes.
	Lit *ast.FuncLit
	// Pkg is the defining loaded package; nil for external callees.
	Pkg *Package
	// Decl is the declaration carrying the body (nil for externals).
	Decl *ast.FuncDecl
	// Parent is the enclosing node for closures.
	Parent *Node
	// Out is the node's outgoing edges in source order.
	Out []*Edge
	// Sites are the node's call sites in source order — including dyn and
	// iface sites that resolved to no target and so have no edge.
	Sites []*CallSite

	litIndex int // 1-based closure index within Parent, for display
}

// Body returns the node's function body, or nil for externals.
func (n *Node) Body() *ast.BlockStmt {
	switch {
	case n.Lit != nil:
		return n.Lit.Body
	case n.Decl != nil:
		return n.Decl.Body
	}
	return nil
}

// Sig returns the node's signature.
func (n *Node) Sig() *types.Signature {
	if n.Lit != nil {
		if t, ok := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature); ok {
			return t
		}
		return nil
	}
	if n.Fn == nil {
		return nil
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	return sig
}

// String renders the node: "pkg.Func", "(pkg.Type).Method",
// "(*pkg.Type).Method", or "pkg.Func$1" for the first closure inside Func.
func (n *Node) String() string {
	if n.Lit != nil {
		if n.Parent == nil { // package-level var initializer
			return fmt.Sprintf("%s.$init$%d", n.Pkg.Path, n.litIndex)
		}
		return fmt.Sprintf("%s$%d", n.Parent.String(), n.litIndex)
	}
	if n.Fn == nil {
		return "<nil>"
	}
	sig := n.Sig()
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), nil), n.Fn.Name())
	}
	if n.Fn.Pkg() != nil {
		return n.Fn.Pkg().Path() + "." + n.Fn.Name()
	}
	return n.Fn.Name()
}

// External reports whether the node has no analyzable body in the module.
func (n *Node) External() bool { return n.Body() == nil }

// EdgeKind classifies how a call site was resolved.
type EdgeKind string

// Edge kinds.
const (
	EdgeStatic EdgeKind = "static" // direct call of a known function
	EdgeIface  EdgeKind = "iface"  // interface dispatch, resolved by method sets
	EdgeDyn    EdgeKind = "dyn"    // function-value call, resolved by signature
)

// Edge is one resolved call: From calls To at Site.
type Edge struct {
	From *Node
	To   *Node
	Site *ast.CallExpr
	Pos  token.Position
	Kind EdgeKind
}

// CallSite is the per-call-expression resolution record.
type CallSite struct {
	Call *ast.CallExpr
	Pos  token.Position
	Kind EdgeKind
	// Targets are the resolved callees (empty for an unresolvable dyn or
	// iface site).
	Targets []*Node
	// Desc names what is being called, for diagnostics.
	Desc string
	// InPanic marks a call inside a panic(...) argument — a death path the
	// hotpath pass does not charge to steady state.
	InPanic bool
}

// CallGraph is the module-wide graph plus the per-site resolution map the
// IR builder consumes.
type CallGraph struct {
	pkgs  []*Package
	funcs map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
	sites map[*ast.CallExpr]*CallSite

	// namedTypes are the module's named (non-interface) types, dispatch
	// candidates for iface edges.
	namedTypes []*types.Named
	// addrTaken maps a signature key to the functions/closures whose value
	// escapes as data (assigned, passed, stored, returned).
	addrTaken map[string][]*Node
}

// BuildCallGraph constructs the graph over the loaded packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		pkgs:      pkgs,
		funcs:     make(map[*types.Func]*Node),
		lits:      make(map[*ast.FuncLit]*Node),
		sites:     make(map[*ast.CallExpr]*CallSite),
		addrTaken: make(map[string][]*Node),
	}
	g.indexDecls()
	g.indexAddressTaken()
	for _, p := range pkgs {
		for _, f := range p.Files {
			g.resolveFile(p, f)
		}
	}
	return g
}

// NodeOf returns the node for a function object, creating an external node
// on first sight of a callee outside the module.
func (g *CallGraph) NodeOf(fn *types.Func) *Node {
	if n, ok := g.funcs[fn]; ok {
		return n
	}
	n := &Node{Fn: fn}
	g.funcs[fn] = n
	return n
}

// LitNode returns the closure node for lit, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *Node { return g.lits[lit] }

// SiteOf returns the resolution record for a call expression, or nil for
// calls the graph does not model (builtins, conversions).
func (g *CallGraph) SiteOf(call *ast.CallExpr) *CallSite { return g.sites[call] }

// indexDecls creates nodes for every declared function/method and every
// function literal, and collects the module's named types.
func (g *CallGraph) indexDecls() {
	for _, p := range g.pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.funcs[fn] = &Node{Fn: fn, Pkg: p, Decl: fd}
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
		// Closures, attributed to their innermost enclosing function node.
		for _, f := range p.Files {
			g.indexLits(p, f)
		}
	}
}

// indexLits registers closure nodes. The AST walk keeps a full node stack
// (ast.Inspect reports a nil on exit of every node) and the enclosing
// function is the innermost FuncDecl/FuncLit on it; outer literals are
// visited before inner ones, so Parent lookups always hit.
func (g *CallGraph) indexLits(p *Package, f *ast.File) {
	var stack []ast.Node
	counts := make(map[*Node]int)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			parent := g.enclosingFunc(p, stack)
			counts[parent]++
			g.lits[lit] = &Node{Lit: lit, Pkg: p, Parent: parent, litIndex: counts[parent]}
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the node of the innermost enclosing function on the
// walk stack, or nil at package level.
func (g *CallGraph) enclosingFunc(p *Package, stack []ast.Node) *Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit:
			return g.lits[n]
		case *ast.FuncDecl:
			fn, _ := p.Info.Defs[n.Name].(*types.Func)
			return g.funcs[fn]
		}
	}
	return nil
}

// sigKey normalizes a signature to parameter/result types only, so dyn
// resolution matches functions regardless of parameter names.
func sigKey(sig *types.Signature) string {
	if sig == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("func(")
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), nil))
	}
	b.WriteByte(')')
	if sig.Variadic() {
		b.WriteString("...")
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if i == 0 {
			b.WriteByte('(')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), nil))
	}
	if sig.Results().Len() > 0 {
		b.WriteByte(')')
	}
	return b.String()
}

// indexAddressTaken finds every use of a function as a value — an identifier
// or selector naming a function anywhere except call position, and every
// function literal — and buckets them by signature for dyn resolution.
func (g *CallGraph) indexAddressTaken() {
	for _, p := range g.pkgs {
		for _, f := range p.Files {
			calleePos := make(map[ast.Expr]bool)
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					calleePos[ast.Unparen(call.Fun)] = true
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					node := g.lits[n]
					g.takeAddr(node)
				case *ast.Ident:
					if calleePos[ast.Expr(n)] {
						return true
					}
					if fn, ok := p.Info.Uses[n].(*types.Func); ok {
						if node, ok := g.funcs[fn]; ok {
							g.takeAddr(node)
						}
					}
				case *ast.SelectorExpr:
					if calleePos[ast.Expr(n)] {
						return true
					}
					if fn, ok := p.Info.Uses[n.Sel].(*types.Func); ok {
						if node, ok := g.funcs[fn]; ok {
							g.takeAddr(node)
						}
					}
				}
				return true
			})
		}
	}
}

func (g *CallGraph) takeAddr(n *Node) {
	if n == nil {
		return
	}
	k := sigKey(n.Sig())
	for _, have := range g.addrTaken[k] {
		if have == n {
			return
		}
	}
	g.addrTaken[k] = append(g.addrTaken[k], n)
}

// resolveFile walks one file, attributing every call expression to its
// enclosing node and resolving its targets.
func (g *CallGraph) resolveFile(p *Package, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if from := g.enclosingFunc(p, stack); from != nil {
				g.resolveCall(p, from, call, inPanicArg(p, stack))
			}
			// Package-level initializer calls stay out of the graph.
		}
		stack = append(stack, n)
		return true
	})
}

// inPanicArg reports whether the walk position is inside the argument of a
// panic call (without leaving the enclosing function).
func inPanicArg(p *Package, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					return true
				}
			}
		}
	}
	return false
}

// resolveCall classifies one call expression and records both the site and
// the edges from the enclosing node.
func (g *CallGraph) resolveCall(p *Package, from *Node, call *ast.CallExpr, inPanic bool) {
	fun := ast.Unparen(call.Fun)
	// Conversions and builtins are not calls in the graph's sense.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := p.Info.Uses[id].(*types.Builtin); ok {
			return
		}
	}

	site := &CallSite{Call: call, Pos: p.Fset.Position(call.Pos()), InPanic: inPanic}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			site.Kind, site.Desc = EdgeStatic, fn.Name()
			site.Targets = []*Node{g.NodeOf(fn)}
		} else {
			g.resolveDyn(p, site, fun)
		}
	case *ast.FuncLit:
		site.Kind, site.Desc = EdgeStatic, "func literal"
		if n := g.lits[fun]; n != nil {
			site.Targets = []*Node{n}
		}
	case *ast.SelectorExpr:
		switch sel := p.Info.Selections[fun]; {
		case sel == nil:
			// Qualified reference pkg.F.
			if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
				site.Kind, site.Desc = EdgeStatic, fullName(fn)
				site.Targets = []*Node{g.NodeOf(fn)}
			} else {
				g.resolveDyn(p, site, fun)
			}
		case sel.Kind() == types.FieldVal:
			g.resolveDyn(p, site, fun)
		case types.IsInterface(sel.Recv()):
			fn := sel.Obj().(*types.Func)
			site.Kind = EdgeIface
			site.Desc = fmt.Sprintf("%s.%s", types.TypeString(sel.Recv(), nil), fn.Name())
			site.Targets = g.implementers(sel.Recv(), fn.Name())
		default:
			fn := sel.Obj().(*types.Func)
			site.Kind, site.Desc = EdgeStatic, fullName(fn)
			site.Targets = []*Node{g.NodeOf(fn)}
		}
	default:
		g.resolveDyn(p, site, fun)
	}

	g.sites[call] = site
	from.Sites = append(from.Sites, site)
	for _, to := range site.Targets {
		from.Out = append(from.Out, &Edge{From: from, To: to, Site: call, Pos: site.Pos, Kind: site.Kind})
	}
}

func fullName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), nil), fn.Name())
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// resolveDyn resolves a call through a function-typed value to every
// address-taken function with the same signature.
func (g *CallGraph) resolveDyn(p *Package, site *CallSite, fun ast.Expr) {
	site.Kind = EdgeDyn
	site.Desc = types.ExprString(fun)
	sig, ok := p.Info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	site.Targets = append(site.Targets, g.addrTaken[sigKey(sig)]...)
}

// implementers returns the method named name of every module-declared named
// type whose value or pointer method set implements iface.
func (g *CallGraph) implementers(iface types.Type, name string) []*Node {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	seen := make(map[*types.Func]bool)
	for _, named := range g.namedTypes {
		for _, t := range []types.Type{named, types.NewPointer(named)} {
			if !types.Implements(t, it) {
				continue
			}
			sel := types.NewMethodSet(t).Lookup(nil, name)
			if sel == nil {
				// Method may be unexported from another package.
				if pkg := named.Obj().Pkg(); pkg != nil {
					sel = types.NewMethodSet(t).Lookup(pkg, name)
				}
			}
			if sel == nil {
				continue
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok || seen[fn] {
				continue
			}
			seen[fn] = true
			out = append(out, g.NodeOf(fn))
			break // value method set implementing ⇒ pointer would duplicate
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// ResolveRoot resolves a root spec — "pkgpath.Func" or
// "pkgpath.Type.Method" — to call-graph nodes. A Type that is an interface
// resolves to the method of every module implementation (plus the interface
// method object itself, so iface call sites inside the module unify).
func (g *CallGraph) ResolveRoot(spec string) ([]*Node, error) {
	i := strings.LastIndex(spec, "/")
	rest := spec
	if i >= 0 {
		rest = spec[i+1:]
	}
	parts := strings.Split(rest, ".")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("root %q: want pkgpath.Func or pkgpath.Type.Method", spec)
	}
	pkgPath := spec[:len(spec)-len(rest)] + parts[0]
	p := findPackage(g.pkgs, pkgPath)
	if p == nil {
		return nil, fmt.Errorf("root %q: package %s is not loaded", spec, pkgPath)
	}
	scope := p.Types.Scope()
	if len(parts) == 2 {
		fn, ok := scope.Lookup(parts[1]).(*types.Func)
		if !ok {
			return nil, fmt.Errorf("root %q: no function %s in %s", spec, parts[1], pkgPath)
		}
		return []*Node{g.NodeOf(fn)}, nil
	}
	tn, ok := scope.Lookup(parts[1]).(*types.TypeName)
	if !ok {
		return nil, fmt.Errorf("root %q: no type %s in %s", spec, parts[1], pkgPath)
	}
	t := tn.Type()
	if types.IsInterface(t) {
		impls := g.implementers(t, parts[2])
		if len(impls) == 0 {
			return nil, fmt.Errorf("root %q: interface method %s has no module implementation", spec, parts[2])
		}
		return impls, nil
	}
	for _, recv := range []types.Type{t, types.NewPointer(t)} {
		if sel := types.NewMethodSet(recv).Lookup(p.Types, parts[2]); sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*Node{g.NodeOf(fn)}, nil
			}
		}
		if sel := types.NewMethodSet(recv).Lookup(nil, parts[2]); sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return []*Node{g.NodeOf(fn)}, nil
			}
		}
	}
	return nil, fmt.Errorf("root %q: type %s has no method %s", spec, parts[1], parts[2])
}

// reachableRegion resolves the root specs and returns every module node
// reachable from them, mapped to the spec that first reached it (for
// diagnostics). Bad root specs become diagnostics attributed to pass.
//
// Reachability follows static and interface edges, plus the closures
// lexically nested in reachable code (they run on the same path when
// invoked through function-value calls like Attempt). Signature-keyed
// dynamic edges are deliberately excluded: they would pull in every
// same-signature closure in the module (soak workers, server internals)
// and drown the region in unrelated "reachable" code.
func (g *CallGraph) reachableRegion(specs []string, pass string) (map[*Node]string, []Diagnostic) {
	var diags []Diagnostic
	origin := make(map[*Node]string)
	var frontier []*Node
	for _, spec := range specs {
		roots, err := g.ResolveRoot(spec)
		if err != nil {
			diags = append(diags, Diagnostic{Pass: pass,
				Message: fmt.Sprintf("bad root %q: %v", spec, err)})
			continue
		}
		for _, r := range roots {
			if _, ok := origin[r]; !ok {
				origin[r] = spec
				frontier = append(frontier, r)
			}
		}
	}
	children := make(map[*Node][]*Node)
	for _, n := range g.moduleNodes() {
		if n.Parent != nil {
			children[n.Parent] = append(children[n.Parent], n)
		}
	}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		visit := func(to *Node) {
			if to.External() {
				return
			}
			if _, ok := origin[to]; !ok {
				origin[to] = origin[n]
				frontier = append(frontier, to)
			}
		}
		for _, e := range n.Out {
			if e.Kind == EdgeDyn {
				continue
			}
			visit(e.To)
		}
		for _, c := range children[n] {
			visit(c)
		}
	}
	return origin, diags
}

// EdgeStrings renders every edge as "from -> to [kind]", sorted, for the
// call-graph construction tests.
func (g *CallGraph) EdgeStrings() []string {
	var out []string
	seen := make(map[string]bool)
	for _, n := range g.moduleNodes() {
		for _, e := range n.Out {
			s := fmt.Sprintf("%s -> %s [%s]", e.From, e.To, e.Kind)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out
}

// moduleNodes returns every node with a body, in deterministic order.
func (g *CallGraph) moduleNodes() []*Node {
	var out []*Node
	for _, n := range g.funcs {
		if !n.External() {
			out = append(out, n)
		}
	}
	for _, n := range g.lits {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pkg != nil && b.Pkg != nil && a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.String() < b.String()
	})
	return out
}
