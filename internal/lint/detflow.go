package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"imc2/internal/lint/cfg"
)

// detflowSinkScope names the packages whose named struct types are
// WAL-encoded: anything persisted by the store must be byte-identical
// across replays.
var detflowSinkScope = []string{"internal/store"}

// detflowWALTypes names the WAL-encoded struct types declared outside
// detflowSinkScope: the store logs them verbatim in its events and
// campaign records. (platform's Report and Audit are logged too; they
// are sinks through detflowReportScope.)
var detflowWALTypes = []struct{ scope, name string }{{"internal/platform", "Submission"}}

// detflowReportScope names the packages whose Report/Audit types are
// compared across runs and replicas.
var detflowReportScope = []string{"internal/platform", "internal/wire", "internal/truth", "internal/strategy"}

// DetflowAnalyzer is the dataflow upgrade of the determinism rule: a
// taint pass over each function's CFG. Values derived from map
// iteration order or from the clock seam must not flow into
// report/audit values or WAL-encoded store types — those bytes are
// compared across replays and replicas, and order- or time-dependent
// content breaks the equality the paper's incentive argument rests on.
// Laundering through an explicit sort is the sanctioned fix and clears
// the taint.
func DetflowAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "detflow",
		Doc:  "map-iteration-order and clock-derived values do not flow into report/audit or WAL-encoded values (sort to launder)",
		Run: func(pass *Pass) {
			if !pass.Pkg.InScope("internal") {
				return
			}
			for _, fd := range pass.funcDecls() {
				taintCheckBody(pass, fd.Body)
				funcLits(fd.Body, func(lit *ast.FuncLit) {
					taintCheckBody(pass, lit.Body)
				})
			}
		},
	}
}

// taint tracks why an object is suspect ("map iteration order" or "the
// clock seam").
type taint map[types.Object]string

func cloneTaint(t taint) taint {
	out := make(taint, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}

// taintCheckBody runs the forward taint fixpoint over one body and
// reports tainted values reaching sinks.
func taintCheckBody(pass *Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	in := make([]taint, len(g.Blocks))
	for i := range in {
		in[i] = taint{}
	}
	// Two passes: the first reaches the fixpoint, the second reports
	// once against stable in-sets so a finding is never emitted twice.
	for pass2 := 0; pass2 < 2; pass2++ {
		report := pass2 == 1
		changed := true
		for changed && !report {
			changed = false
			for _, b := range g.Blocks {
				t := cloneTaint(in[b.Index])
				for _, node := range b.Nodes {
					transferTaint(pass, node, t, false)
				}
				for _, s := range b.Succs {
					for obj, why := range t {
						if _, ok := in[s.Index][obj]; !ok {
							in[s.Index][obj] = why
							changed = true
						}
					}
				}
			}
		}
		if report {
			for _, b := range g.Blocks {
				t := cloneTaint(in[b.Index])
				for _, node := range b.Nodes {
					transferTaint(pass, node, t, true)
				}
			}
		}
	}
}

// transferTaint updates the taint set across one CFG node and, when
// report is set, checks the node's sinks.
func transferTaint(pass *Pass, node ast.Node, t taint, report bool) {
	if report {
		checkSinks(pass, node, t)
	}
	switch n := node.(type) {
	case *ast.RangeStmt:
		why := ""
		if pass.IsMapType(n.X) {
			why = "map iteration order"
		} else if _, w := exprTaint(pass, n.X, t); w != "" {
			why = w
		}
		if why != "" {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.Pkg.Info.Defs[id]; obj != nil {
						t[obj] = why
					} else if obj := pass.Pkg.Info.Uses[id]; obj != nil {
						t[obj] = why
					}
				}
			}
		}
		return
	case *ast.AssignStmt:
		// Evaluate rhs taint before updating lhs (x = x is stable).
		tainted, why := false, ""
		for _, rhs := range n.Rhs {
			if ok, w := exprTaint(pass, rhs, t); ok {
				tainted, why = true, w
			}
		}
		for _, lhs := range n.Lhs {
			switch l := lhs.(type) {
			case *ast.Ident:
				if l.Name == "_" {
					continue
				}
				obj := pass.Pkg.Info.Defs[l]
				if obj == nil {
					obj = pass.Pkg.Info.Uses[l]
				}
				if obj == nil {
					continue
				}
				if tainted {
					t[obj] = why
				} else {
					delete(t, obj)
				}
			case *ast.SelectorExpr:
				// Writing a tainted value into a field of a sink-typed
				// value is a sink in itself.
				if tainted && report {
					if sink, wal := sinkTypeName(pass, l.X); sink != "" {
						pass.Reportf(n.Pos(), "value derived from %s flows into %s (%s)", why, sink, sinkKindDesc(wal))
					}
				}
				// Weak update: the base object becomes tainted.
				if tainted {
					if base, ok := rootIdentObj(pass, l.X); ok {
						t[base] = why
					}
				}
			}
		}
		return
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				tainted, why := false, ""
				for _, v := range vs.Values {
					if ok, w := exprTaint(pass, v, t); ok {
						tainted, why = true, w
					}
				}
				if !tainted {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						t[obj] = why
					}
				}
			}
		}
		return
	}
	// Sanitizers: an explicit sort fixes the order, clearing the taint
	// of the sorted value.
	callsIn(node, func(call *ast.CallExpr) {
		if !isSortCall(pass, call) || len(call.Args) == 0 {
			return
		}
		if obj, ok := rootIdentObj(pass, call.Args[0]); ok {
			delete(t, obj)
		}
	})
}

// checkSinks reports composite literals of sink types with tainted
// elements.
func checkSinks(pass *Pass, node ast.Node, t taint) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		sink, wal := sinkTypeName(pass, lit)
		if sink == "" {
			return true
		}
		for _, elt := range lit.Elts {
			val := elt
			if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
				val = kv.Value
			}
			if ok, why := exprTaint(pass, val, t); ok {
				pass.Reportf(val.Pos(), "value derived from %s flows into %s (%s)", why, sink, sinkKindDesc(wal))
			}
		}
		return true
	})
}

// exprTaint reports whether the expression's value depends on a tainted
// object or a nondeterminism source.
func exprTaint(pass *Pass, e ast.Expr, t taint) (bool, string) {
	tainted, why := false, ""
	ast.Inspect(e, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[n]
			if obj == nil {
				obj = pass.Pkg.Info.Defs[n]
			}
			if obj != nil {
				if w, ok := t[obj]; ok {
					tainted, why = true, w
				}
			}
		case *ast.CallExpr:
			if w := sourceCall(pass, n); w != "" {
				tainted, why = true, w
			}
		}
		return !tainted
	})
	return tainted, why
}

// sourceCall recognizes nondeterminism sources: the wall clock, read
// directly or through a func() time.Time seam.
func sourceCall(pass *Pass, call *ast.CallExpr) string {
	if path, name, ok := pass.PkgFunc(call); ok && path == "time" {
		switch name {
		case "Now", "Since", "Until":
			return "the clock seam"
		}
	}
	// A call through a function value of type func() time.Time is the
	// injected clock seam.
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return ""
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Recv() != nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return ""
	}
	if named, isNamed := types.Unalias(sig.Results().At(0).Type()).(*types.Named); isNamed {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Time" {
			// Only function VALUES are the seam; a declared function
			// returning time.Time resolves to *types.Func and is not
			// flagged here (the determinism analyzer owns that budget).
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if _, isVar := pass.Pkg.Info.Uses[fun].(*types.Var); isVar {
					return "the clock seam"
				}
			case *ast.SelectorExpr:
				if _, isVar := pass.Pkg.Info.Uses[fun.Sel].(*types.Var); isVar {
					return "the clock seam"
				}
			}
		}
	}
	return ""
}

// isSortCall recognizes the sanctioned laundering calls.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	path, name, ok := pass.PkgFunc(call)
	if !ok {
		return false
	}
	switch path {
	case "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Sort", "Stable", "Slice", "SliceStable":
			return true
		}
	case "slices":
		return strings.HasPrefix(name, "Sort")
	}
	return false
}

// sinkTypeName names the sink type an expression denotes, or "", and
// whether the store logs its values.
func sinkTypeName(pass *Pass, e ast.Expr) (sink string, wal bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return "", false
	}
	path, name := obj.Pkg().Path(), obj.Name()
	sink = obj.Pkg().Name() + "." + name
	if pathInScope(path, detflowSinkScope...) && walEncodedName(name) {
		return sink, true
	}
	for _, w := range detflowWALTypes {
		if name == w.name && pathInScope(path, w.scope) {
			return sink, true
		}
	}
	if pathInScope(path, detflowReportScope...) &&
		(strings.Contains(name, "Report") || strings.Contains(name, "Audit")) {
		return sink, false
	}
	return "", false
}

// walEncodedName recognizes the store types that are actually encoded
// into the WAL or snapshots: the event, its payloads, the replayed
// records, and the folded state — not the store machinery around them.
func walEncodedName(name string) bool {
	return name == "Event" || name == "State" ||
		strings.HasSuffix(name, "Record") || strings.HasSuffix(name, "Payload")
}

// sinkKindDesc says why the sink matters in the message.
func sinkKindDesc(wal bool) string {
	if wal {
		return "WAL-encoded: order- or time-dependent bytes break replay equality"
	}
	return "compared across runs: nondeterministic content breaks report equality"
}

// rootIdentObj peels selectors and indexes down to the base identifier
// of an lvalue-ish expression and returns its object.
func rootIdentObj(pass *Pass, e ast.Expr) (types.Object, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[x]
			if obj == nil {
				obj = pass.Pkg.Info.Defs[x]
			}
			return obj, obj != nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}
