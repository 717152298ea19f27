package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` over a map in a determinism-critical
// package. Go randomizes map iteration order, so any plan decision,
// simulator event, or exported artifact derived from such a loop can
// differ run to run — exactly the class of bug fixed by hand in the
// prefetch-order, LRU-victim, and rewrite-agenda incidents (PR 1).
//
// Two shapes are recognized as safe and not reported:
//
//   - collection followed by a TOTAL sort in the same block:
//     for k := range m { keys = append(keys, k) } ... sort.Ints(keys)
//     (conditional appends of any expression are fine; the loop must
//     do nothing else, and the sort must be one that totally orders
//     the slice — sort.Ints, sort.Strings, sort.Float64s, or
//     slices.Sort. sort.Slice does NOT qualify: a comparator with a
//     partial key leaves tie order at the mercy of map iteration);
//   - pure deletion: for k := range m { delete(m, k) }.
//
// Loops that are order-insensitive for subtler reasons (commutative
// integer accumulation, ID-tie-broken argmax) carry a
// `//lint:allow maporder` with the argument spelled out.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "range over a map in a determinism-critical package without sorting keys",
	Packages: []string{
		"tsplit/internal/core",
		"tsplit/internal/sim",
		"tsplit/internal/graph",
		"tsplit/internal/experiments",
		"tsplit/internal/obs",
		"tsplit/internal/serve",
	},
	Run: runMapOrder,
}

func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				t := p.TypeOf(rng.X)
				if t == nil {
					continue
				}
				if _, ok := t.Underlying().(*types.Map); !ok {
					continue
				}
				if deleteOnlyBody(rng.Body) {
					continue
				}
				if dest := collectTarget(rng); dest != "" && totalSortFollows(p, block.List[i+1:], dest) {
					continue
				}
				p.Reportf(rng.For, "map iteration order is nondeterministic: sort the keys first (or //lint:allow maporder with a reason)")
			}
			return true
		})
	}
}

// deleteOnlyBody reports whether every statement in the loop body is a
// delete(...) call — clearing a map is order-insensitive.
func deleteOnlyBody(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "delete" {
			return false
		}
	}
	return true
}

// collectTarget returns the name of the slice the loop appends into,
// when the body does nothing else (conditionals and continue are
// permitted), or "" when the loop has any other effect. The appended
// expression is unconstrained: a total sort of the collected slice
// makes the multiset order deterministic whatever was collected.
func collectTarget(rng *ast.RangeStmt) string {
	dest := ""
	var walk func(stmts []ast.Stmt) bool
	walk = func(stmts []ast.Stmt) bool {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.IfStmt:
				if s.Init != nil {
					// `if v, ok := ...; ok` guards are side-effect free
					// for our purposes only when they bind new names.
					if as, ok := s.Init.(*ast.AssignStmt); !ok || as.Tok.String() != ":=" {
						return false
					}
				}
				if !walk(s.Body.List) {
					return false
				}
				if s.Else != nil {
					eb, ok := s.Else.(*ast.BlockStmt)
					if !ok || !walk(eb.List) {
						return false
					}
				}
			case *ast.BranchStmt:
				// continue/break only
			case *ast.AssignStmt:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return false
				}
				lhs, ok := s.Lhs[0].(*ast.Ident)
				if !ok {
					return false
				}
				call, ok := s.Rhs[0].(*ast.CallExpr)
				if !ok || len(call.Args) != 2 {
					return false
				}
				fn, ok := call.Fun.(*ast.Ident)
				if !ok || fn.Name != "append" {
					return false
				}
				arg0, ok := call.Args[0].(*ast.Ident)
				if !ok || arg0.Name != lhs.Name {
					return false
				}
				if dest != "" && dest != lhs.Name {
					return false
				}
				dest = lhs.Name
			default:
				return false
			}
		}
		return true
	}
	if !walk(rng.Body.List) {
		return ""
	}
	return dest
}

// totalSorts are the sort calls that impose a total order on their
// argument, making the collected order fully deterministic.
var totalSorts = map[string]map[string]bool{
	"sort":   {"Ints": true, "Strings": true, "Float64s": true},
	"slices": {"Sort": true},
}

// totalSortFollows reports whether one of the statements after the
// loop (in the same block) totally sorts the collected slice.
func totalSortFollows(p *Pass, rest []ast.Stmt, dest string) bool {
	for _, stmt := range rest {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := p.Info.Uses[pkgID]
		if !ok {
			continue
		}
		pn, ok := obj.(*types.PkgName)
		if !ok {
			continue
		}
		fns, ok := totalSorts[pn.Imported().Path()]
		if !ok || !fns[sel.Sel.Name] {
			continue
		}
		arg0, ok := call.Args[0].(*ast.Ident)
		if !ok || arg0.Name != dest {
			continue
		}
		return true
	}
	return false
}
