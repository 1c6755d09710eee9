package iotmap_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExports lists the exports of internal/ that no product code
// uses but that must stay exported, each with the reason. The list may
// only shrink: TestExportsHaveProductCallers fails on an unused export
// missing from it, and on an entry that gained a caller or is gone.
var unusedExports = map[string]string{
	"internal/censys.Snapshot.Records":            "world's censys oracle compares each day's catalog view with a from-scratch snapshot with it",
	"internal/core/flows.BackendIndex.Size":       "the root package's backend-index test checks the index's address count against its oracle with it",
	"internal/core/flows.ContactCounter.Scanners": "collector tests and the root package's stage benchmark compare scanner sets with it; product code reads Curve",
	"internal/core/flows.WireTables.Lines":        "collector's window resume test checks that a resumed stream kept its dictionary with it",
	"internal/core/patterns.ByProvider":           "footprint and patterns tests look patterns up by provider with it",
	"internal/dnszone.Store.AddAddr":              "world's zone-store oracle builds its reference stores one record at a time with it",
	"internal/dnszone.Store.Names":                "world's zone-store oracle compares derived and from-scratch stores' owner names with it",
	"internal/hitlist.Hitlist.Entries":            "world's hitlist test checks every entry against the world's servers with it",
	"internal/netflow.AppendV9Packet":             "collector tests build the NetFlow v9 datagrams ServeUDP decodes with it",
	"internal/netflow.EncodeV5Clamped":            "collector tests build the v5 datagrams ServeUDP decodes with it; the pipeline only decodes v5",
	"internal/world.Provider.ActiveServers":       "isp and discovery tests pick a provider's live servers with it",
}

// TestExportsHaveProductCallers fails when an exported function,
// method, type, field, constant or variable declared in a non-test file
// under internal/ is used by no non-test file of the module tree: the
// root package, cmd/, internal/ itself and the separate benchmark/
// module all count as users.
//
// A use is an identifier the type checker resolves to the export's own
// object, so an unrelated identifier that happens to share its name
// (os.FileInfo.Size for an internal Size method) does not count. A
// selection x.f uses f wherever it was promoted from; embedded fields
// are not keyed, since naming their type is their use. A method also
// counts as used when its type satisfies an interface that product code
// mentions, and fmt.Stringer and error always count, since fmt calls
// String and Error through reflection. An export with no use is either
// removed or listed in unusedExports with its reason.
func TestExportsHaveProductCallers(t *testing.T) {
	unused := unusedExportsIn(t, ".", "benchmark")
	for _, key := range unused {
		if _, ok := unusedExports[key]; !ok {
			t.Errorf("%s: exported but used by no product code; delete it, move it into a _test.go file, or unexport it", key)
		}
	}
	listed := make([]string, 0, len(unusedExports))
	for key := range unusedExports {
		listed = append(listed, key)
	}
	sort.Strings(listed)
	for _, key := range listed {
		if i := sort.SearchStrings(unused, key); i == len(unused) || unused[i] != key {
			t.Errorf("%s: allowlisted as unused, but it has a product caller or is gone; take it off unusedExports", key)
		}
	}
}

// TestExportsScanResolvesByType runs the scan over a fixture module in
// which internal/lib.Size is called only by lib's own test while the
// product code calls os.FileInfo.Size, and lib.Item.String is reached
// only through fmt. A scan that matched by name would take the
// os.FileInfo call for a use of lib.Size and report nothing.
func TestExportsScanResolvesByType(t *testing.T) {
	got := unusedExportsIn(t, filepath.Join("testdata", "exportsfixture"))
	want := []string{"internal/lib.Size"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unused exports = %v, want %v", got, want)
	}
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
}

// unusedExportsIn type-checks every non-test package that
// `go list -export -deps ./...` lists in the given module directories
// (the first is the module whose internal/ is scanned; the rest only
// add users) and returns the keys of the internal/ exports nothing
// uses, sorted. Keys are "dir.Name", methods and fields "dir.Type.Name",
// with dir relative to the first module. Module packages are checked
// from source in dependency order, so every use resolves to the very
// object its declaration defined; the standard library is read from the
// compiler's export data.
func unusedExportsIn(t *testing.T, modules ...string) []string {
	t.Helper()
	root, err := filepath.Abs(modules[0])
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	var source []listedPackage
	seen := map[string]bool{}
	for _, dir := range modules {
		for _, p := range goListExport(t, dir) {
			switch {
			case p.Standard:
				exports[p.ImportPath] = p.Export
			case !seen[p.ImportPath]:
				seen[p.ImportPath] = true
				source = append(source, p)
			}
		}
	}

	fset := token.NewFileSet()
	stdlib := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return stdlib.Import(path)
	})}

	decls := map[types.Object]string{}
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
		stringer(): true,
	}
	for _, p := range source {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg

		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if rel = filepath.ToSlash(rel); strings.HasPrefix(rel, "internal/") {
			for _, f := range files {
				collectDecls(f, func(id *ast.Ident, key string) {
					if id.IsExported() {
						decls[info.Defs[id]] = rel + "." + key
					}
				})
			}
		}
		for _, obj := range info.Uses {
			used[obj] = true
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}

	var unused []string
	for obj, key := range decls {
		if !used[obj] && !satisfiesUsedInterface(obj, ifaces) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	return unused
}

// goListExport runs `go list -export -deps -json ./...` in dir, which
// builds every listed package's export data, and decodes its output:
// dependencies come before the packages that import them.
func goListExport(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stringer is fmt.Stringer's method set.
func stringer() *types.Interface {
	str := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String])), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", str)}, nil).Complete()
}

// satisfiesUsedInterface reports whether obj is a method whose receiver
// type, or a pointer to it, implements one of ifaces that has a method
// of obj's name: a call through that interface can reach obj.
func satisfiesUsedInterface(obj types.Object, ifaces map[*types.Interface]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	for it := range ifaces {
		if !types.Implements(typ, it) && !types.Implements(types.NewPointer(typ), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
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
