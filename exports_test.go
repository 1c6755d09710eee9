package iotmap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExports lists the exports of internal/ that no product code
// names but that must stay exported, each with the reason. The list may
// only shrink: TestExportsHaveProductCallers fails on an unused export
// missing from it, and on an entry that gained a caller or is gone.
var unusedExports = map[string]string{
	"internal/core/patterns.ByProvider":     "footprint and patterns tests look patterns up by provider with it",
	"internal/dnszone.Store.AddAddr":        "world's zone-store oracle builds its reference stores one record at a time with it",
	"internal/netflow.AppendV9Packet":       "collector tests build the NetFlow v9 datagrams ServeUDP decodes with it",
	"internal/netflow.EncodeV5Clamped":      "collector tests build the v5 datagrams ServeUDP decodes with it; the pipeline only decodes v5",
	"internal/world.Provider.ActiveServers": "isp and discovery tests pick a provider's live servers with it",
}

// TestExportsHaveProductCallers fails when an exported function,
// method, type, field, constant or variable declared in a non-test file
// under internal/ is named by no non-test file of the module tree: the
// root package, cmd/, examples/, internal/ itself and the separate
// benchmark/ module all count as callers.
//
// It matches by name only. Any identifier with the export's name, in
// any package, counts as a use, so the scan is a conservative lower
// bound: it never reports a name some product code spells, and it needs
// no type checker and no subprocess. An export whose only uses are by
// name elsewhere (a method reached only through an interface, a field
// only a codec reads) shows up here and is either removed or listed in
// unusedExports with its reason.
func TestExportsHaveProductCallers(t *testing.T) {
	decls, uses := scanModuleTree(t, ".")
	var unused []string
	for key, name := range decls {
		if !uses[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := unusedExports[key]; !ok {
			t.Errorf("%s: exported but named by no product code; delete it, move it into a _test.go file, or unexport it", key)
		}
	}
	listed := make([]string, 0, len(unusedExports))
	for key := range unusedExports {
		listed = append(listed, key)
	}
	sort.Strings(listed)
	for _, key := range listed {
		if name, ok := decls[key]; !ok || uses[name] {
			t.Errorf("%s: allowlisted as unused, but it has a product caller or is gone; take it off unusedExports", key)
		}
	}
}

// scanModuleTree parses every non-test .go file under root. It returns
// the exports declared under internal/, keyed "dir.Name" (methods and
// fields "dir.Type.Name") and mapped to their bare name, and the set of
// identifier names the files use anywhere but in a declaring position.
func scanModuleTree(t *testing.T, root string) (decls map[string]string, uses map[string]bool) {
	t.Helper()
	decls = map[string]string{}
	uses = map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		declIdents := map[*ast.Ident]bool{}
		collectDecls(f, func(id *ast.Ident, key string) {
			declIdents[id] = true
			if strings.HasPrefix(dir, "internal/") && id.IsExported() {
				decls[dir+"."+key] = id.Name
			}
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				uses[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, uses
}

// collectDecls calls add for every package-level declaring identifier
// in f: functions, methods (keyed Recv.Name), types, struct fields and
// interface methods (keyed Type.Name), constants and variables.
func collectDecls(f *ast.File, add func(id *ast.Ident, key string)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				key = recvTypeName(d.Recv.List[0].Type) + "." + key
			}
			add(d.Name, key)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name)
					collectMembers(s.Name.Name, s.Type, add)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name)
					}
				}
			}
		}
	}
}

// collectMembers adds the named fields of a struct type and the methods
// of an interface type, descending into nested struct literals.
func collectMembers(owner string, typ ast.Expr, add func(id *ast.Ident, key string)) {
	var fields *ast.FieldList
	switch tt := typ.(type) {
	case *ast.StructType:
		fields = tt.Fields
	case *ast.InterfaceType:
		fields = tt.Methods
	default:
		return
	}
	for _, field := range fields.List {
		for _, id := range field.Names {
			add(id, owner+"."+id.Name)
			collectMembers(owner+"."+id.Name, field.Type, add)
		}
	}
}

// recvTypeName strips pointers and type parameters from a receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
