package gulfstream

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestMapWalksAreOrderFree: Go randomises map iteration, so on a seeded
// simulator any effect that follows a map's order gives one seed two
// outcomes. Every range over a map in the module's non-test code must be
// order-free by form (see orderFree) or carry an `// order-free: <why>`
// comment on its `for` line or the line above. A walk whose order matters
// ranges over ordered.Keys instead. -v logs the counts per package.
func TestMapWalksAreOrderFree(t *testing.T) {
	fset := token.NewFileSet()
	var total [3]int // loops, order-free by form, annotated
	for _, p := range loadModule(t, fset, ".", false) {
		var n [3]int
		for _, f := range p.files {
			notes := annotatedLines(fset, f)
			ast.Inspect(f, func(nd ast.Node) bool {
				rs, ok := nd.(*ast.RangeStmt)
				if !ok || !isMap(p.info.TypeOf(rs.X)) {
					return true
				}
				n[0]++
				pos := fset.Position(rs.For)
				switch {
				case notes[pos.Line] || notes[pos.Line-1]:
					n[2]++
				case orderFree(p.info, rs):
					n[1]++
				default:
					t.Errorf("%s: range over a map is neither order-free by form nor annotated `// order-free: <why>`", pos)
				}
				return true
			})
		}
		if n[0] > 0 {
			t.Logf("%-32s loops %3d  by form %3d  annotated %3d", p.path, n[0], n[1], n[2])
		}
		for i := range n {
			total[i] += n[i]
		}
	}
	t.Logf("%-32s loops %3d  by form %3d  annotated %3d", "total", total[0], total[1], total[2])
}

// TestOrderFreeForms pins what orderFree accepts: each loop below is
// followed by the verdict it must get.
func TestOrderFreeForms(t *testing.T) {
	const src = `package p

func f(m, o map[int]int, set map[string]bool) (n, best, bestK int, sum float64, out []int) {
	for k := range m { delete(m, k) }                                            // free
	for k, v := range m { o[k] = v }                                             // free: its own entry
	for _, v := range m { set["x"] = true; o[v] = 1 }                           // free: a constant
	for range m { n++ }                                                          // free
	for _, v := range m { if v > 2 { n += v } }                                  // free
	for k, v := range m { if v > best || v == best && k < bestK { best, bestK = v, k } } // free
	for k, v := range m { if v > best { best, bestK = v, k } }                   // order: ties keep the first met
	for k, v := range m { o[v] = k }                                             // order: two keys, one entry
	for _, v := range m { sum += float64(v) }                                    // order: a float sum
	for k := range m { out = append(out, k) }                                   // order
	for k := range m { if k > 3 { break } }                                      // order
	for k := range m { println(k) }                                              // order
	return
}`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	if _, err := new(types.Config).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{} // line -> order-free
	for _, g := range f.Comments {
		want[fset.Position(g.Pos()).Line] = strings.HasPrefix(g.Text(), "free")
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if line := fset.Position(rs.For).Line; orderFree(info, rs) != want[line] {
				t.Errorf("line %d: orderFree = %v, want %v", line, !want[line], want[line])
			}
		}
		return true
	})
}

// annotatedLines returns the lines that carry an order-free note.
func annotatedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, g := range f.Comments {
		for _, c := range g.List {
			if strings.HasPrefix(c.Text, "// order-free:") {
				lines[fset.Position(c.Slash).Line] = true
			}
		}
	}
	return lines
}

// isMap: t is a map, or a type parameter constrained to maps.
func isMap(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		iface := tp.Constraint().Underlying().(*types.Interface)
		for i := 0; i < iface.NumEmbeddeds(); i++ {
			if u, ok := iface.EmbeddedType(i).(*types.Union); ok && u.Len() > 0 && isMap(u.Term(0).Type()) {
				return true
			}
		}
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderFree reports whether a loop's effects cannot depend on the order
// it visits the map in: its body is made only of order-free statements.
func orderFree(info *types.Info, rs *ast.RangeStmt) bool {
	w := walkForm{info: info}
	if id, ok := rs.Key.(*ast.Ident); ok {
		w.key = info.ObjectOf(id)
	}
	return w.stmts(rs.Body.List, nil)
}

// walkForm holds the loop whose body it classifies.
type walkForm struct {
	info *types.Info
	key  types.Object // the range key, nil if unnamed
}

func (w walkForm) stmts(list []ast.Stmt, cond ast.Expr) bool {
	for _, s := range list {
		if !w.stmt(s, cond) {
			return false
		}
	}
	return true
}

// stmt: cond is the condition of the closest enclosing if, which may make
// a plain assignment a min or max update.
func (w walkForm) stmt(s ast.Stmt, cond ast.Expr) bool {
	switch s := s.(type) {
	case *ast.ExprStmt: // delete(m, k)
		call, ok := s.X.(*ast.CallExpr)
		return ok && w.builtin(call.Fun, "delete") && w.pure(call.Args...)
	case *ast.IncDecStmt: // counting
		return w.pure(s.X)
	case *ast.AssignStmt:
		if !w.pure(s.Rhs...) {
			return false
		}
		switch s.Tok {
		case token.DEFINE: // a local of this iteration
			return true
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			b, ok := w.info.TypeOf(s.Lhs[0]).Underlying().(*types.Basic)
			return ok && b.Info()&types.IsInteger != 0 // float and string sums follow the order
		case token.ASSIGN:
			for i, lhs := range s.Lhs {
				if len(s.Rhs) != len(s.Lhs) || !w.mapWrite(lhs, s.Rhs[i]) && !w.extremum(lhs, cond) {
					return false
				}
			}
			return true
		}
	case *ast.IfStmt:
		return (s.Init == nil || w.stmt(s.Init, cond)) && w.pure(s.Cond) &&
			w.stmts(s.Body.List, s.Cond) && (s.Else == nil || w.stmt(s.Else, cond))
	case *ast.BlockStmt:
		return w.stmts(s.List, cond)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.RangeStmt:
		return w.pure(s.X) && w.stmts(s.Body.List, nil)
	}
	return false
}

// mapWrite: lhs is m[k] with k the loop's key, or the value written is a
// constant, so no two iterations write different values to one entry.
func (w walkForm) mapWrite(lhs, rhs ast.Expr) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok || !isMap(w.info.TypeOf(ix.X)) {
		return false
	}
	lit, ok := rhs.(*ast.CompositeLit)
	return w.isKey(ix.Index) || w.info.Types[rhs].Value != nil || ok && len(lit.Elts) == 0
}

// extremum: inside `if cond`, lhs = rhs updates a running min or max
// when cond orders (<, <=, >, >= or package cmp) and mentions lhs. A
// variable the condition does not compare would keep whichever of two
// tied entries the walk met first; comparing them all is a total order.
func (w walkForm) extremum(lhs ast.Expr, cond ast.Expr) bool {
	if cond == nil {
		return false
	}
	l := types.ExprString(lhs)
	orders, mentions := false, false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				orders = true
			}
		case *ast.CallExpr:
			orders = orders || w.inCmp(n.Fun)
		}
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == l {
			mentions = true
		}
		return true
	})
	return orders && mentions
}

// inCmp: fun is a function of package cmp, which computes and does nothing.
func (w walkForm) inCmp(fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	f, ok := w.info.Uses[sel.Sel].(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == "cmp"
}

func (w walkForm) isKey(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && w.key != nil && w.info.ObjectOf(id) == w.key
}

func (w walkForm) builtin(fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := w.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// pure: the expressions call nothing but len, cap, min, max and
// conversions, and receive from no channel.
func (w walkForm) pure(es ...ast.Expr) bool {
	ok := true
	for _, e := range es {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if w.info.Types[n.Fun].IsType() || w.inCmp(n.Fun) {
					return true
				}
				for _, b := range []string{"len", "cap", "min", "max"} {
					if w.builtin(n.Fun, b) {
						return true
					}
				}
				ok = false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					ok = false
				}
			case *ast.FuncLit:
				ok = false
			}
			return ok
		})
	}
	return ok
}
