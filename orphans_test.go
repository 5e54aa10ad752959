package sparsefusion

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

// orphansAllowed lists the exported functions and methods under internal/ that
// no shipped code references, each with the reason it stays.
var orphansAllowed = map[string]string{
	// Test oracles: independent checks the tests assert with.
	"relayout.CheckExclusive":            "independent oracle for the packed rung's redirect and fold tables",
	"sparse.CSR.Dense":                   "dense reference form the kernel and factorization tests compare against",
	"sparse.CSR.At":                      "element lookup of the same dense-reference tests",
	"sparse.CSR.IsLowerTriangular":       "shape oracle of the triangle-extraction and ILU-split tests",
	"sparse.CSR.IsSymmetricPattern":      "asserts every generator in sparse and suite yields a symmetric pattern",
	"dagp.EdgeCut":                       "objective the refinement test requires not to rise",
	"dagp.QuotientAcyclic":               "validity oracle of every dagp partition the tests build",
	"core.Program.Decompile":             "round-trip oracle: compiling a schedule loses nothing",
	"core.Loops.TotalIterations":         "coverage oracle: ICO schedules every iteration exactly once",
	"partition.Partitioning.NumVertices": "coverage oracle of the lbc and dagp tests",
	"kernels.PackedStream.Occurrences":   "stream-length oracle of the relayout and packed-kernel tests",
	"kernels.SpILU0CSR.SplitILU":         "splits the in-place factor so the tests can check L*U against A",
	"refinspect.ICO":                     "the frozen inspector core.ICO's output is compared against (make orphans names the package)",
	// Fixtures and injectors shared by tests of several packages.
	"sparse.Ones":               "right-hand-side fixture of the facade, cg and kernel tests",
	"chaos.Rng.CancelAfter":     "cancel-storm injector of the chaos scenario matrix",
	"chaos.NewDelay":            "slow-worker injector of the chaos scenario matrix",
	"chaos.NewPanic":            "worker-panic injector of the chaos scenario matrix",
	"chaos.NewBreakdown":        "numerical-breakdown injector of the chaos scenario matrix",
	"chaos.CorruptFile":         "disk-tier corruption injector of the chaos scenario matrix",
	"chaos.TruncateFile":        "disk-tier truncation injector of the chaos scenario matrix",
	"chaos.Under":               "harness watchdog every chaos scenario runs under",
	"exec.Pool.PoisonForTest":   "lets internal/serve's tests retire a worker set without staging a real stall",
	"telemetry.Tracer.SetClock": "pins timestamps for the tracer's golden test",
	// Reached without being named.
	"exec.CancelledError.Unwrap":   "reached through errors.Is / errors.As",
	"exec.ExecError.Unwrap":        "reached through errors.Is / errors.As",
	"serve.queueError.Unwrap":      "reached through errors.Is / errors.As",
	"exec.CancelledError.Deadline": "public API: the facade re-exports the type as sparsefusion.CancelledError",
	// Verdicts of ISSUE 22, kept with the reason (CHANGES.md has the list of
	// what was deleted instead).
	"atomicf.Load":                     "read half of the atomic float; the package goes whole with ROADMAP item 4(a)",
	"atomicf.Store":                    "write half of the atomic float; the package goes whole with ROADMAP item 4(a)",
	"cachesim.MeasurePacked":           "the only locality measurement of the packed rung, which the sparse-fusion Impl now runs on; Figure 6 switches to it with ROADMAP item 8",
	"metrics.GeoMean":                  "the paper's summary statistic (geometric-mean speed-up over the suite); ROADMAP item 8(e)'s report generator is its caller",
	"metrics.Speedup":                  "the ratio GeoMean averages; same verdict",
	"partition.Partitioning.WaitWork":  "potential gain in work units (paper figure 6's definition): how ROADMAP item 8(d) prices a baseline partitioning without running it",
	"partition.Partitioning.FlatOrder": "sequential replay order of a partitioning; pins S/W ordering in partition's tests",
	"sparse.CSR.StrictLower":           "mirror of the shipped StrictUpper; the disjoint-cover test needs both",
	"sparse.CSR.Upper":                 "mirror of the shipped Lower, built and allocation-tested by the same code",
	"telemetry.Counter.AddShard":       "the sharded increment the Counter's padded layout exists for; hammered under -race; goes with the shards if ROADMAP item 6 does not adopt it",
}

// TestNoOrphanExports fails when an exported function or method declared in a
// non-test file under internal/ is referenced from no non-test file of the
// library, cmd/, examples/ or bench/: `make orphans` sees packages, this sees
// functions. The check is by name — a function counts as referenced when its
// package-qualified name (or, inside its own package, its bare name) appears
// outside its own declaration; a method when any selector carries its name —
// so it can miss an orphan that shares a name with something live, and never
// reports a live function.
func TestNoOrphanExports(t *testing.T) {
	type decl struct {
		key, dir, name, pos string
		method              bool
	}
	var decls []decl
	funcRefs := map[string]bool{} // "import/path.Name" and "dir.Name"
	selRefs := map[string]bool{}  // any x.Name
	fset := token.NewFileSet()

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		visit := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selRefs[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						funcRefs[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				funcRefs[dir+"."+n.Name] = true
			}
			return true
		}
		for _, dc := range f.Decls {
			fd, ok := dc.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(dc, visit)
				continue
			}
			// Everything but the declared name itself is a reference site.
			if fd.Recv != nil {
				ast.Inspect(fd.Recv, visit)
			}
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
			if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			key := path.Base(dir) + "."
			if fd.Recv != nil {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, dir, fd.Name.Name, fset.Position(fd.Pos()).String(), fd.Recv != nil})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	orphan := map[string]string{}
	for _, d := range decls {
		live := selRefs[d.name]
		if !d.method {
			live = funcRefs["sparsefusion/"+d.dir+"."+d.name] || funcRefs[d.dir+"."+d.name]
		}
		if !live {
			orphan[d.key] = d.pos
		}
	}
	var keys []string
	for k := range orphan {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := orphansAllowed[k]; !ok {
			t.Errorf("%s: %s is exported but referenced by no non-test file; delete it, unexport it, or allow-list it with its reason", orphan[k], k)
		}
	}
	for k := range orphansAllowed {
		if _, ok := orphan[k]; !ok {
			t.Errorf("allow-list entry %s is stale: it is referenced by shipped code or no longer declared", k)
		}
	}
}

// recvName is the receiver's type name, pointers and type parameters dropped.
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
			return "?"
		}
	}
}
