// The keysound pass: statically prove cache-key soundness. The artifact
// cache (internal/artifacts) is content-addressed — "the key material *is*
// the content address" — which is only true while every configuration field
// the compute path reads is folded into the key. A field the kernel consults
// but the key omits means two different configurations share one address:
// the cache serves stale bytes forever, silently. The converse — a field the
// key folds but nothing computes from — is merely wasteful: changing it
// forces a spurious cold recompute of bit-identical artifacts.
//
// For every field of the configured key-covered structs (Config.KeyRules:
// sim.Config, workload.Params, core.Options, traffic.Spec) the pass decides
// two questions on the PR 5 engine:
//
//   - compute-read: does the field's value influence anything the compute
//     region (functions reachable from Config.ComputeRoots over static and
//     interface edges plus lexically nested closures) consumes? A field read
//     directly in the region counts, and so does a field whose taint reaches
//     — via the module-wide flow graph — any field the region reads (the
//     derived-value shape: traffic normalization turns ZipfSkew into tenant
//     Weights; the composer reads Weights, never ZipfSkew).
//   - folded: does the field's value reach the key material the same way,
//     with the fold region rooted at Config.KeyFoldRoots (the artifacts.Key
//     fold methods and Spec.Material)? Reads at call sites of fold helpers
//     and folds of derived values are covered by the same two mechanisms.
//
// compute-read but not folded is a hard stale-cache finding; folded but not
// compute-read is an advisory spurious-miss warning. Both anchor at the
// field's declaration and are waived there with `//ispy:keyfold <reason>`.
// Known over-approximations, chosen to err toward silence on the compute
// side and toward noise on the fold side: field keys are instance-
// insensitive (any read of a same-named field of the same struct counts),
// flow is condition-blind, and the regions exclude signature-keyed dynamic
// edges (like ctxflow, to keep unrelated same-signature closures out).
// Instance-insensitivity also makes the derived-fold rule order-blind: a
// kernel-side mutation that feeds a folded field (cfg.MaxInstrs += knob)
// is indistinguishable from a pre-key derivation and counts as folded,
// so a smuggled field only surfaces when its reads stay out of other
// folded fields.
package vetting

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// KeyFieldCoverage is one row of the keysound coverage table: the verdict
// for one field of one key-covered struct (emitted under -json).
type KeyFieldCoverage struct {
	Struct      string // pkgpath.Type
	Field       string
	ComputeRead bool
	Folded      bool
	Waived      bool // an //ispy:keyfold waiver sits on the field
}

// checkKeySound runs the key-soundness proof and returns the findings plus
// the per-field coverage table.
func checkKeySound(a *Analysis, cfg Config, ws *waiverSet) ([]Diagnostic, []KeyFieldCoverage) {
	if len(cfg.KeyRules) == 0 || len(cfg.KeyFoldRoots) == 0 || len(cfg.ComputeRoots) == 0 {
		return nil, nil
	}
	var diags []Diagnostic

	foldRegion, errs := a.graph.reachableRegion(cfg.KeyFoldRoots, PassKeySound)
	diags = append(diags, errs...)
	computeRegion, errs := a.graph.reachableRegion(cfg.ComputeRoots, PassKeySound)
	diags = append(diags, errs...)
	if len(foldRegion) == 0 || len(computeRegion) == 0 {
		return diags, nil
	}

	foldReads := regionFieldReads(a, foldRegion)
	computeReads := regionFieldReads(a, computeRegion)
	fg := buildFlowGraph(a)

	var cov []KeyFieldCoverage
	for _, rule := range cfg.KeyRules {
		for _, f := range ruleFields(a.pkgs, StatsRule(rule)) {
			fieldPos := fieldDeclPos(a.pkgs, rule.PkgPath, f)
			// One propagation per field: the sources are per-field, so the
			// verdicts (and their witness positions) stay attributable.
			st := fg.propagate([]taintSource{{
				key: fieldK(f), pos: fieldPos,
				what: fmt.Sprintf("%s.%s", rule.Type, f.Name()),
			}})
			folded, foldWhere := regionVerdict(st, f, foldReads)
			computed, computeWhere := regionVerdict(st, f, computeReads)
			cov = append(cov, KeyFieldCoverage{
				Struct:      rule.PkgPath + "." + rule.Type,
				Field:       f.Name(),
				ComputeRead: computed,
				Folded:      folded,
				Waived:      ws.hasWaiver(PassKeySound, fieldPos),
			})
			var d Diagnostic
			switch {
			case computed && !folded:
				d = Diagnostic{Pos: fieldPos, Pass: PassKeySound,
					Message: fmt.Sprintf("field %s.%s is read on the compute path (%s) but never folded into artifacts.Key material — cached artifacts go stale when it changes",
						rule.Type, f.Name(), computeWhere)}
			case folded && !computed:
				d = Diagnostic{Pos: fieldPos, Pass: PassKeySound, Advisory: true,
					Message: fmt.Sprintf("field %s.%s is folded into key material (%s) but nothing on the compute path reads it — changing it forces a spurious cache miss",
						rule.Type, f.Name(), foldWhere)}
			default:
				continue
			}
			if !ws.waive(d) {
				diags = append(diags, d)
			}
		}
	}
	return diags, cov
}

// regionVerdict decides whether field f's value reaches one region: a
// direct read of the field inside the region, or — via the propagated flow
// state — taint reaching any field the region reads (the derived-value
// shape). The returned witness names the read that decided it.
func regionVerdict(st *taintState, f *types.Var, reads *fieldReads) (bool, string) {
	if pos, ok := reads.pos[f]; ok {
		return true, fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}
	if tr, ok := st.tainted(reads.keys); ok {
		return true, fmt.Sprintf("via a derived value at %s:%d", tr.via.Filename, tr.via.Line)
	}
	return false, ""
}

// fieldReads is the read set of one region: every struct field a region
// function reads, with the first read's position (deterministic: nodes in
// graph order, reads in source order).
type fieldReads struct {
	keys []flowKey // fieldK of every read field, first-read order
	pos  map[*types.Var]token.Position
}

// regionFieldReads scans the bodies of the region's functions for field
// reads. Write-only uses (the left-hand side of a plain assignment) do not
// count — storing into a field consumes nothing of its old value — but
// compound assignments and everything on a right-hand side do.
func regionFieldReads(a *Analysis, region map[*Node]string) *fieldReads {
	fr := &fieldReads{pos: make(map[*types.Var]token.Position)}
	for _, n := range a.graph.moduleNodes() {
		if _, ok := region[n]; !ok {
			continue
		}
		if n.Lit != nil {
			continue // closure bodies are scanned within their enclosing decl
		}
		body := n.Body()
		if body == nil {
			continue
		}
		writes := assignWriteTargets(body)
		ast.Inspect(body, func(x ast.Node) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || writes[sel] {
				return true
			}
			if s := n.Pkg.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				if f, ok := s.Obj().(*types.Var); ok {
					if _, seen := fr.pos[f]; !seen {
						fr.pos[f] = n.Pkg.Fset.Position(sel.Pos())
						fr.keys = append(fr.keys, fieldK(f))
					}
				}
			}
			return true
		})
	}
	return fr
}

// assignWriteTargets collects the selector expressions that are pure write
// targets in body: the Lhs of `=` and `:=` assignments (compound tokens
// like += read the old value and are excluded on purpose).
func assignWriteTargets(body ast.Node) map[*ast.SelectorExpr]bool {
	out := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for _, lhs := range as.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				out[sel] = true
			}
		}
		return true
	})
	return out
}

// fieldDeclPos locates a field's declaration position in its package's
// syntax (the types.Var position is already source-accurate; this resolves
// it through the package's FileSet).
func fieldDeclPos(pkgs []*Package, pkgPath string, f *types.Var) token.Position {
	if p := findPackage(pkgs, pkgPath); p != nil {
		return p.Fset.Position(f.Pos())
	}
	return token.Position{}
}
