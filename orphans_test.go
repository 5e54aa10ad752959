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
	"atomicf.Load":                    "read half of the atomic float; the package goes whole with ROADMAP item 4(a)",
	"atomicf.Store":                   "write half of the atomic float; the package goes whole with ROADMAP item 4(a)",
	"metrics.GeoMean":                 "the paper's summary statistic (geometric-mean speed-up over the suite); ROADMAP item 8(e)'s report generator is its caller",
	"partition.Partitioning.WaitWork": "potential gain in work units (paper figure 6's definition): how ROADMAP item 8(d) prices a baseline partitioning without running it",
}

// shippedFile is one parsed non-test Go file of the library, cmd/, examples/
// or bench/.
type shippedFile struct {
	dir     string // slash-separated, relative to the module root
	f       *ast.File
	imports map[string]string // local name -> import path
}

// parseShipped parses every non-test Go file under the module root.
func parseShipped(t *testing.T, fset *token.FileSet) []shippedFile {
	var files []shippedFile
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
		sf := shippedFile{dir: filepath.ToSlash(filepath.Dir(p)), f: f, imports: map[string]string{}}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			sf.imports[name] = ip
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
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

	for _, sf := range parseShipped(t, fset) {
		dir, imports := sf.dir, sf.imports
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
		for _, dc := range sf.f.Decls {
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
	checkAllowList(t, orphan, orphansAllowed, "is exported but referenced by no non-test file; delete it, unexport it, or allow-list it with its reason")
}

// deadConfigAllowed lists the exported struct fields under internal/ that no
// shipped code sets, each with the reason it stays.
var deadConfigAllowed = map[string]string{
	"combos.ChainSpec.MaxGroup": "the unfused / pairwise / composed candidates ROADMAP item 1's policy chooses among are MaxGroup 1 / 2 / 0; the chain tests pin their bits",
	"core.Params.DisableMerge":  "ablation of ICO's merging phase (DESIGN.md section 7 and the ablation benchmarks); the fuzzers draw both arms",
	"core.Params.DisableSlack":  "ablation of slack vertex assignment; same verdict",
	"exec.Breakdown.Steals":     "always zero; bench/layers.go still reads it for exec.steals_per_unit, and both go with ROADMAP item 11",
}

// TestNoDeadConfiguration fails when an exported field of a struct declared in
// a non-test file under internal/ is set by no non-test file of the library,
// cmd/, examples/ or bench/: a knob nothing turns is a code path nothing
// runs. A field is set by a keyed composite literal naming it; by an unkeyed
// one of its struct, elided elements such as []T{{...}} included; by x.F = v
// (unless v is a plain copy y.F), x.F op= v, x.F[i] = v, x.F++ or &x.F. Keys
// and selectors are matched by field name, as TestNoOrphanExports matches
// methods, so a field can hide behind a live namesake; unkeyed literals are
// matched to the struct they name.
func TestNoDeadConfiguration(t *testing.T) {
	fset := token.NewFileSet()
	files := parseShipped(t, fset)

	// The struct declarations: positional field names per "dir.Type", and
	// the exported fields under internal/ to check.
	fields := map[string][]string{}
	type field struct{ key, name, typ, pos string }
	var checked []field
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var names []string
			for _, fl := range st.Fields.List {
				if len(fl.Names) == 0 {
					names = append(names, recvName(fl.Type))
				}
				for _, id := range fl.Names {
					names = append(names, id.Name)
					if id.IsExported() && strings.HasPrefix(sf.dir, "internal/") {
						checked = append(checked, field{path.Base(sf.dir) + "." + ts.Name.Name + "." + id.Name, id.Name, sf.dir + "." + ts.Name.Name, fset.Position(id.Pos()).String()})
					}
				}
			}
			fields[sf.dir+"."+ts.Name.Name] = names
			return true
		})
	}

	setNames := map[string]bool{} // keyed literal keys and written selectors
	setTyped := map[string]bool{} // "dir.Type.Field" from unkeyed literals
	for _, sf := range files {
		// typeKey resolves a composite literal's type to "dir.Type".
		typeKey := func(e ast.Expr) string {
			for {
				switch x := e.(type) {
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.IndexListExpr:
					e = x.X
				case *ast.Ident:
					return sf.dir + "." + x.Name
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						return strings.TrimPrefix(sf.imports[id.Name], "sparsefusion/") + "." + x.Sel.Name
					}
					return ""
				default:
					return ""
				}
			}
		}
		// literal records what one composite literal of type typ sets.
		var literal func(lit *ast.CompositeLit, typ ast.Expr)
		literal = func(lit *ast.CompositeLit, typ ast.Expr) {
			if lit.Type != nil {
				typ = lit.Type
			}
			var elem ast.Expr // the type of elided element literals
			switch x := typ.(type) {
			case *ast.ArrayType:
				elem = x.Elt
			case *ast.MapType:
				elem = x.Value
			}
			key := typeKey(typ)
			for i, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && elem == nil {
						setNames[id.Name] = true
					}
					el = kv.Value
				} else if elem == nil && key != "" && i < len(fields[key]) {
					setTyped[key+"."+fields[key][i]] = true
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil && elem != nil {
					literal(inner, elem)
				}
			}
		}
		// written marks every field a write through e reaches: x.F, x.F[i],
		// x.F.G.
		var written func(e ast.Expr)
		written = func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				setNames[x.Sel.Name] = true
				written(x.X)
			case *ast.IndexExpr:
				written(x.X)
			case *ast.StarExpr:
				written(x.X)
			case *ast.ParenExpr:
				written(x.X)
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				if x.Type != nil {
					literal(x, nil)
				}
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
						l, lok := lhs.(*ast.SelectorExpr)
						r, rok := x.Rhs[i].(*ast.SelectorExpr)
						if lok && rok && l.Sel.Name == r.Sel.Name {
							continue // a plain copy passes a value on; it sets nothing new
						}
					}
					written(lhs)
				}
			case *ast.IncDecStmt:
				written(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					written(x.X)
				}
			}
			return true
		})
	}

	dead := map[string]string{}
	for _, f := range checked {
		if !setNames[f.name] && !setTyped[f.typ+"."+f.name] {
			dead[f.key] = f.pos
		}
	}
	checkAllowList(t, dead, deadConfigAllowed, "is an exported field no non-test file sets; delete it, set it, or allow-list it with its reason")
}

// checkAllowList reports every finding the allow-list does not name, and
// every allow-list entry that is no longer a finding.
func checkAllowList(t *testing.T, found map[string]string, allowed map[string]string, what string) {
	t.Helper()
	var keys []string
	for k := range found {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := allowed[k]; !ok {
			t.Errorf("%s: %s %s", found[k], k, what)
		}
	}
	for k := range allowed {
		if _, ok := found[k]; !ok {
			t.Errorf("allow-list entry %s is stale: it is live in shipped code or no longer declared", k)
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
