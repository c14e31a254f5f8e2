// The context-flow pass: along the configured request entry points
// (handler → pipeline → artifact paths), every context that reaches a
// callee must derive from the request's own context — otherwise the
// deadline/cancellation contract PR 7 established by hand (DESIGN.md §12)
// silently breaks: a fresh context.Background() keeps I/O alive after the
// client is gone, and a dropped rewrite severs the deadline chain.
//
// Two findings:
//
//  1. minting: a call to context.Background() or context.TODO() anywhere in
//     request-reachable code (CallGraph.reachableRegion from
//     Config.CtxRoots: static and interface edges plus nested closures);
//  2. dropping: a context-typed argument at a request-reachable call site
//     whose value is not derived — via the module-wide flow graph — from a
//     request source (a context or *http.Request parameter of reachable
//     code). Derivation survives context.With* wrapping (external call
//     results carry their arguments' keys) and struct-field storage
//     (field-global keys).
//
// Intentional fresh contexts (a nil-ctx compatibility guard) carry an
// //ispy:ctx waiver with a reason.
package vetting

import (
	"fmt"
	"go/ast"
	"go/types"
)

func checkCtxFlow(a *Analysis, cfg Config, ws *waiverSet) []Diagnostic {
	origin, diags := a.graph.reachableRegion(cfg.CtxRoots, PassCtxFlow)

	// Request sources: context and *http.Request parameters of reachable
	// functions (closures share their enclosing function's objects, so a
	// captured handler ctx needs nothing extra).
	var sources []taintSource
	for _, n := range a.graph.moduleNodes() {
		if _, ok := origin[n]; !ok {
			continue
		}
		sig := n.Sig()
		if sig == nil {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			prm := sig.Params().At(i)
			if isContextType(prm.Type()) || isRequestType(prm.Type()) {
				sources = append(sources, taintSource{
					key: objK(prm), pos: n.Pkg.Fset.Position(prm.Pos()),
					what: fmt.Sprintf("request-derived parameter %s of %s", prm.Name(), n),
				})
			}
		}
	}
	st := buildFlowGraph(a).propagate(sources)

	for _, n := range a.graph.moduleNodes() {
		root, ok := origin[n]
		if !ok {
			continue
		}
		ir := a.irOf(n)
		if ir == nil {
			continue
		}
		for _, rec := range ir.calls {
			site := rec.site
			// Finding 1: minting a fresh context in request-reachable code.
			if name := freshCtxCall(site); name != "" {
				d := Diagnostic{Pos: site.Pos, Pass: PassCtxFlow, Message: fmt.Sprintf(
					"context.%s() in request-reachable code (%s is reachable from %s); derive the context from the request instead",
					name, n, root)}
				if !ws.waive(d) {
					diags = append(diags, d)
				}
				continue
			}
			// Finding 2: a context-typed argument not derived from the request.
			sig, _ := n.Pkg.Info.TypeOf(site.Call.Fun).(*types.Signature)
			if sig == nil {
				continue
			}
			for i, arg := range site.Call.Args {
				if i >= sig.Params().Len() || (sig.Variadic() && i >= sig.Params().Len()-1) {
					break
				}
				if !isContextType(sig.Params().At(i).Type()) {
					continue
				}
				if isFreshCtxExpr(n.Pkg, arg) {
					continue // finding 1 reports the minting itself
				}
				if i < len(rec.argKeys) {
					if _, ok := st.tainted(rec.argKeys[i]); ok {
						continue
					}
				}
				d := Diagnostic{Pos: n.Pkg.Fset.Position(arg.Pos()), Pass: PassCtxFlow, Message: fmt.Sprintf(
					"call to %s passes a context not derived from the request (reachable from %s); thread the handler context through",
					site.Desc, root)}
				if !ws.waive(d) {
					diags = append(diags, d)
				}
			}
		}
	}
	return diags
}

// freshCtxCall reports "Background" or "TODO" when the site statically
// calls that context constructor, else "".
func freshCtxCall(site *CallSite) string {
	for _, to := range site.Targets {
		if to.Fn != nil && to.Fn.Pkg() != nil && to.Fn.Pkg().Path() == "context" {
			if name := to.Fn.Name(); name == "Background" || name == "TODO" {
				return name
			}
		}
	}
	return ""
}

// isFreshCtxExpr reports an argument that is literally context.Background()
// or context.TODO() (possibly parenthesized).
func isFreshCtxExpr(p *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		return fn.Name() == "Background" || fn.Name() == "TODO"
	}
	return false
}

// isRequestType matches *net/http.Request.
func isRequestType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamed(ptr.Elem(), "net/http", "Request")
}
