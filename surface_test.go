package pccsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed names the exported functions and methods under internal/
// that no non-test file uses, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"ctrace.ReplayPolicy.BaseFaultOnly": baseFaultOnlyMarker,
	"ospolicy.Baseline.BaseFaultOnly":   baseFaultOnlyMarker,
	"ospolicy.HawkEye.BaseFaultOnly":    baseFaultOnlyMarker,
	"ospolicy.PCCEngine.BaseFaultOnly":  baseFaultOnlyMarker,
	"difftest.CheckFigure":              "the snapshot difftest harness; its package exists for its tests",
}

const baseFaultOnlyMarker = "marker: vmm matches it through the vmm.BaseFaultOnly interface and never calls it"

// exportDecl is one exported function or method declared under internal/.
type exportDecl struct {
	name string // pkg.Func or pkg.Type.Method
	pos  token.Position
	used bool
}

// TestNoTestOnlyExports keeps internal/ free of exported surface that only
// tests reach. It parses every non-test file under cmd/, internal/,
// examples/ and perfbench/, and fails on each exported function declared
// under internal/ that no such file uses outside its own declaration, and
// on each exported method of an exported type that no selector names. A
// function is used where it appears as a bare name in its own package or
// as pkg.Name in a file importing it; a method is used where any selector
// names it, whatever the receiver.
func TestNoTestOnlyExports(t *testing.T) {
	type srcFile struct {
		pkgPath string
		f       *ast.File
	}
	var files []srcFile
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err == nil {
				files = append(files, srcFile{"pccsim/" + filepath.ToSlash(filepath.Dir(p)), f})
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	funcs := map[string]*exportDecl{}     // import path + "." + name
	methods := map[string][]*exportDecl{} // method name -> its declarations
	for _, sf := range files {
		if !strings.HasPrefix(sf.pkgPath, "pccsim/internal/") {
			continue
		}
		for _, d := range sf.f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			e := &exportDecl{name: sf.f.Name.Name + "." + fd.Name.Name, pos: fset.Position(fd.Pos())}
			if fd.Recv == nil {
				funcs[sf.pkgPath+"."+fd.Name.Name] = e
			} else if recv := recvTypeName(fd.Recv.List[0].Type); ast.IsExported(recv) {
				e.name = sf.f.Name.Name + "." + recv + "." + fd.Name.Name
				methods[fd.Name.Name] = append(methods[fd.Name.Name], e)
			}
		}
	}

	markFunc := func(key string) {
		if e := funcs[key]; e != nil {
			e.used = true
		}
	}
	for _, sf := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range sf.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		for _, d := range sf.f.Decls {
			// A declaration's own name, and a function's bare references
			// to itself, are not uses.
			var declName *ast.Ident
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				declName = fd.Name
				if fd.Recv == nil {
					self = fd.Name.Name
				}
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						markFunc(imports[id.Name] + "." + x.Sel.Name)
						return false
					}
					for _, e := range methods[x.Sel.Name] {
						e.used = true
					}
					ast.Inspect(x.X, visit)
					return false
				case *ast.Ident:
					if x != declName && x.Name != self {
						markFunc(sf.pkgPath + "." + x.Name)
					}
				}
				return true
			}
			ast.Inspect(d, visit)
		}
	}

	var decls []*exportDecl
	for _, e := range funcs {
		decls = append(decls, e)
	}
	for _, es := range methods {
		decls = append(decls, es...)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	allowed := map[string]bool{}
	for _, e := range decls {
		_, ok := testOnlyAllowed[e.name]
		switch {
		case ok && e.used:
			t.Errorf("%s: %s has a non-test use; drop it from testOnlyAllowed", e.pos, e.name)
		case !ok && !e.used:
			t.Errorf("%s: %s is exported but only tests use it", e.pos, e.name)
		}
		allowed[e.name] = ok
	}
	for name := range testOnlyAllowed {
		if !allowed[name] {
			t.Errorf("testOnlyAllowed names %s, which is not an exported function under internal/", name)
		}
	}
}

// recvTypeName returns the type name of a method receiver: T for T, *T,
// T[K] and *T[K].
func recvTypeName(x ast.Expr) string {
	for {
		switch r := x.(type) {
		case *ast.StarExpr:
			x = r.X
		case *ast.IndexExpr:
			x = r.X
		case *ast.IndexListExpr:
			x = r.X
		case *ast.Ident:
			return r.Name
		default:
			return ""
		}
	}
}
