package genbase

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported functions and methods outside
// benchmark/ that no non-test file outside benchmark/ references, each with
// the reason it stays. TestNoTestOnlyExports holds the scan to this map
// exactly: a new export that only tests call must move into its package's
// _test.go files or be listed here, and an entry whose name is gone or now
// has a product caller must be removed.
var unreferencedAllowed = map[string]string{
	// The library API of package genbase.
	"genbase.Queries":   "library API: the paper's five queries",
	"genbase.Scenarios": "library API: every runnable query",
	"genbase.Systems":   "library API: the configuration names",

	// benchmark/ is frozen and compiles against these; nothing else in the
	// product calls them.
	"internal/bicluster.Run":               "frozen benchmark: benchmark/probes.go",
	"internal/core.FleetConfigs":           "frozen benchmark: benchmark/cells.go",
	"internal/cost.Online.ObserveWall":     "frozen benchmark: benchmark/fleet.go warms the router's table",
	"internal/linalg.KernelTileInfo":       "frozen benchmark: benchmark/main.go's result header",
	"internal/linalg.LeastSquares":         "frozen benchmark: benchmark/probes.go",
	"internal/linalg.Mul":                  "frozen benchmark: benchmark/probes.go",
	"internal/linalg.MulATA":               "frozen benchmark: benchmark/probes.go",
	"internal/linalg.SetKernelAutotune":    "frozen benchmark: inert shim, benchmark/main.go sets it",
	"internal/linalg.TopKSVD":              "frozen benchmark: benchmark/probes.go",
	"internal/serve.NewRouter":             "frozen benchmark: benchmark/fleet.go's routed fleet",
	"internal/serve.Router.RouterStats":    "frozen benchmark: benchmark/fleet.go",
	"internal/storage.BufferPool.NumPages": "frozen benchmark: benchmark/probes.go",
	"internal/storage.HeapFile.NumPages":   "frozen benchmark: benchmark/probes.go",
	"internal/storage.HeapFile.Pool":       "frozen benchmark: benchmark/probes.go",
	"internal/storage.HeapFile.Scan":       "frozen benchmark: benchmark/probes.go",
	"internal/wal.Store.DeltaRows":         "frozen benchmark: benchmark/ingest.go",
	"internal/wal.Store.Recovery":          "frozen benchmark: benchmark/ingest.go",
	"internal/wal.Store.ServePoolStats":    "frozen benchmark: inert shim, benchmark/ingest.go reports it",
	"internal/wal.Store.Snapshot":          "frozen benchmark: benchmark/ingest.go",

	// Cross-package test seams: a product-level test outside the package
	// needs each one (its doc comment names the test).
	"internal/bicluster.FindOne":               "seam: root TestChengChurchMatchesReference",
	"internal/datagen.MustGenerate":            "seam: the engine packages' test datasets",
	"internal/faults.Parse":                    "seam: root fault drills and serve's distributed test",
	"internal/faults.Seeded":                   "seam: root TestFaultGoldenInvariance",
	"internal/linalg.Matrix.FrobeniusNorm":     "seam: distlinalg TestGramMatchesDense",
	"internal/linalg.Matrix.View":              "seam: root TestQRMatchesReference",
	"internal/linalg.MaxAbsDiff":               "seam: arraydb, analytics and distlinalg tests",
	"internal/linalg.MulNaive":                 "seam: root TestKernelPerfFloor512 and GEMM benchmarks",
	"internal/linalg.QR.Q":                     "seam: root TestQRMatchesReference",
	"internal/linalg.QR.QTVec":                 "seam: root TestQRMatchesReference",
	"internal/linalg.QR.R":                     "seam: root TestQRMatchesReference",
	"internal/multinode.Engine.Cluster":        "seam: root TestFaultRecoveryObservable",
	"internal/multinode.Engine.SetFaults":      "seam: root fault drills and serve's distributed test",
	"internal/multinode.Engine.SetReplication": "seam: root fault drills and serve's distributed test",
	"internal/storage.BufferPool.PinnedPages":  "seam: rowstore's pin-leak tests",
}

// TestNoTestOnlyExports lists every exported function and method declared in
// a non-test file outside benchmark/ that no non-test file outside benchmark/
// references, and compares the list with unreferencedAllowed. References are
// by name: a function counts as used when its package's non-test code names
// it, or another non-test file selects it through an import of its package;
// a method counts as used when any non-test file selects a member of that
// name or declares an interface method of that name. benchmark/ is left out
// of the references so that the surface it compiles against is listed, with
// its reason, rather than hidden.
func TestNoTestOnlyExports(t *testing.T) {
	got := unreferencedExports(t, ".")
	unlisted, stale := surfaceDrift(got, unreferencedAllowed)
	for _, name := range unlisted {
		t.Errorf("%s is exported but only tests (or nothing) call it: move it into a _test.go file, or list it in unreferencedAllowed with its reason", name)
	}
	for _, name := range stale {
		t.Errorf("unreferencedAllowed lists %s, which no longer exists or is now referenced by non-test code: remove the entry", name)
	}
	t.Logf("allowlist: %d entries; unreferenced exports found: %d", len(unreferencedAllowed), len(got))
}

// surfaceDrift compares the unreferenced exports found with an allowlist. It
// returns the names found but not listed, and the sorted listed names not
// found.
func surfaceDrift(got []string, allowed map[string]string) (unlisted, stale []string) {
	for _, name := range got {
		if _, ok := allowed[name]; !ok {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allowed {
		if !slices.Contains(got, name) {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	return unlisted, stale
}

// The guard catches both ways the surface drifts from its allowlist, shown
// on a small module: an export that only a test calls, and an allowlist
// entry for a name that no longer exists.
func TestNoTestOnlyExportsCatchesMutations(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"lib.go": `package genbase

import "github.com/genbase/genbase/internal/x"

func run() { x.Used(); var t x.T; t.M() }
`,
		"internal/x/x.go": `package x

type T struct{}

func (T) M()           {}
func (T) OnlyTestedM() {}
func Used()            {}
func OnlyTested()      {}
`,
		"internal/x/x_test.go": `package x

func use() { OnlyTested(); T{}.OnlyTestedM() }
`,
		"benchmark/main.go": `package main

import "github.com/genbase/genbase/internal/x"

func main() { x.OnlyTested() }
`,
	} {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := unreferencedExports(t, root)
	want := []string{"internal/x.OnlyTested", "internal/x.T.OnlyTestedM"}
	if !slices.Equal(got, want) {
		t.Fatalf("unreferenced exports %v, want %v", got, want)
	}

	t.Run("test-only-export", func(t *testing.T) {
		unlisted, stale := surfaceDrift(got, map[string]string{"internal/x.T.OnlyTestedM": "seam"})
		if !slices.Equal(unlisted, []string{"internal/x.OnlyTested"}) || len(stale) != 0 {
			t.Fatalf("unlisted %v, stale %v; want only internal/x.OnlyTested unlisted", unlisted, stale)
		}
	})
	t.Run("stale-entry", func(t *testing.T) {
		allowed := map[string]string{
			"internal/x.OnlyTested":    "seam",
			"internal/x.T.OnlyTestedM": "seam",
			"internal/x.Gone":          "seam",
		}
		unlisted, stale := surfaceDrift(got, allowed)
		if len(unlisted) != 0 || !slices.Equal(stale, []string{"internal/x.Gone"}) {
			t.Fatalf("unlisted %v, stale %v; want only internal/x.Gone stale", unlisted, stale)
		}
	})
}

// unreferencedExports scans the module rooted at root and returns the
// sorted "pkgdir.Func" and "pkgdir.Recv.Method" names of exported functions
// and methods, outside benchmark/, that no non-test file references.
func unreferencedExports(t *testing.T, root string) []string {
	t.Helper()
	const module = "github.com/genbase/genbase" // go.mod's module path
	fset := token.NewFileSet()

	type decl struct {
		dir, name, recv string
	}
	var decls []decl
	funcRefs := map[string]bool{}   // "importpath.Name"
	methodRefs := map[string]bool{} // "Name"

	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(rel, "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(rel)
		pkgPath := module
		if dir != "." {
			pkgPath = module + "/" + dir
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		visit := visitRefs(imports, pkgPath, funcRefs, methodRefs)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, visit)
				continue
			}
			if fn.Name.IsExported() {
				dc := decl{dir: dir, name: fn.Name.Name}
				if fn.Recv != nil {
					dc.recv = recvName(fn.Recv.List[0].Type)
				}
				decls = append(decls, dc)
			}
			// Neither the declared name nor a function's call of itself
			// is a use.
			self := pkgPath + "." + fn.Name.Name
			had := funcRefs[self]
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
			if fn.Recv == nil && !had {
				delete(funcRefs, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var out []string
	for _, dc := range decls {
		pkgPath, label := module, dc.dir
		if dc.dir == "." {
			label = path.Base(module)
		} else {
			pkgPath = module + "/" + dc.dir
		}
		if dc.recv == "" {
			if !funcRefs[pkgPath+"."+dc.name] {
				out = append(out, label+"."+dc.name)
			}
			continue
		}
		if !methodRefs[dc.name] {
			out = append(out, label+"."+dc.recv+"."+dc.name)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// visitRefs returns an ast.Inspect visitor that records, for one file,
// every package-level name it uses (bare in its own package, or selected
// through an import) and every member name it selects or declares in an
// interface.
func visitRefs(imports map[string]string, pkgPath string, funcRefs, methodRefs map[string]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ip, ok := imports[x.Name]; ok {
					funcRefs[ip+"."+n.Sel.Name] = true
					return false
				}
			}
			methodRefs[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					methodRefs[name.Name] = true
				}
			}
		case *ast.Ident:
			funcRefs[pkgPath+"."+n.Name] = true
		}
		return true
	}
	return visit
}

// recvName is the base type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
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
			return ""
		}
	}
}
