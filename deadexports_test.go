package gulfstream

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/ordered"
)

// TestNoDeadExports: an exported name under internal/ — a package-level
// func, var, const or type, or a method of a named type — must have a
// reason to be exported. It has one when
//
//   - non-test code of either module (repro, or the benchmark's
//     repro/bench) references it;
//   - another package's tests reference it;
//   - some interface type in the program or the standard library has a
//     method of its name and signature, so a call can reach it through
//     that interface; or
//   - its declaration carries an `// api: <why>` comment.
//
// Anything else is dead: delete it, or move it into a _test.go file of its
// package if only that package's tests use it. -v logs how many exported
// names are referenced only inside their own package; that number is
// tracked, not gated.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := append(loadModule(t, fset, ".", true), loadModule(t, fset, "bench", true)...)

	type decl struct {
		pos    token.Pos
		api    bool
		method string // a method's methodKey; "" otherwise
	}
	decls := map[string]decl{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		for _, f := range p.files {
			if p.test[f] {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						fn := p.info.Defs[d.Name].(*types.Func)
						dc := decl{pos: d.Name.Pos(), api: apiNote(d.Doc)}
						if d.Recv != nil {
							dc.method = methodKey(fn.Name(), fn.Type().(*types.Signature))
						}
						decls[exportKey(fn)] = dc
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						var doc, comment *ast.CommentGroup
						switch s := s.(type) {
						case *ast.TypeSpec:
							names, doc, comment = []*ast.Ident{s.Name}, s.Doc, s.Comment
						case *ast.ValueSpec:
							names, doc, comment = s.Names, s.Doc, s.Comment
						}
						for _, id := range names {
							if id.IsExported() {
								decls[exportKey(p.info.Defs[id])] = decl{pos: id.Pos(), api: apiNote(d.Doc) || apiNote(doc) || apiNote(comment)}
							}
						}
					}
				}
			}
		}
	}

	// outside: referenced by non-test code or tests of another package;
	// inside: referenced by its own package's non-test code.
	outside, inside := map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		test := map[*token.File]bool{}
		for _, f := range p.files {
			test[fset.File(f.Pos())] = p.test[f]
		}
		for id, obj := range p.info.Uses {
			key := exportKey(obj)
			if _, ok := decls[key]; !ok {
				continue
			}
			switch {
			case obj.Pkg().Path() != p.path:
				outside[key] = true
			case !test[fset.File(id.Pos())]:
				inside[key] = true
			}
		}
	}

	methods := interfaceMethods(pkgs)
	own := 0
	for _, k := range ordered.Keys(decls) {
		d := decls[k]
		switch {
		case outside[k]:
		case inside[k]:
			own++
		case d.api, methods[d.method]:
		default:
			t.Errorf("%s: %s is exported, but nothing uses it except its own package's tests: delete it, move it into a _test.go file, or say why with `// api: <why>`", fset.Position(d.pos), k)
		}
	}
	t.Logf("%d exported names under internal/, %d referenced only inside their own package", len(decls), own)
}

// exportKey names a package-level object, or a method of a named type, by
// its package path: "repro/internal/sim.Scheduler.RunFor". Other objects
// (fields, locals, methods of interface literals) get "".
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	var recv *types.Var
	if fn, ok := obj.(*types.Func); ok {
		recv = fn.Type().(*types.Signature).Recv()
	}
	switch {
	case recv != nil:
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		name = n.Origin().Obj().Name() + "." + name
	case obj.Pkg().Scope().Lookup(name) != obj:
		return ""
	}
	return obj.Pkg().Path() + "." + name
}

// apiNote: the comment group carries an `// api: <why>` line.
func apiNote(g *ast.CommentGroup) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if strings.HasPrefix(c.Text, "// api:") {
			return true
		}
	}
	return false
}

// methodKey is a method's name and signature, without parameter names.
func methodKey(name string, sig *types.Signature) string {
	var b strings.Builder
	b.WriteString(name)
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// interfaceMethods returns the methodKey of every method of every
// interface the packages declare or import, the standard library's
// included, and of error's.
func interfaceMethods(pkgs []srcPackage) map[string]bool {
	keys := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				keys[methodKey(m.Name(), m.Type().(*types.Signature))] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(p.info.TypeOf(it))
				}
				return true
			})
		}
	}
	return keys
}
