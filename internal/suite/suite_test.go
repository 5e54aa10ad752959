package suite

import (
	"path/filepath"
	"testing"

	"sparsefusion/internal/dag"
	"sparsefusion/internal/sparse"
)

func TestParseSpecs(t *testing.T) {
	for spec, wantRows := range map[string]int{
		"lap2d:10":  100,
		"lap3d:4":   64,
		"rand:50:4": 50,
		"band:60:5": 60,
		"pow:70:2":  70,
	} {
		a, err := Parse(spec, false)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if a.Rows != wantRows {
			t.Fatalf("%s: rows = %d, want %d", spec, a.Rows, wantRows)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"nope:5", "lap2d", "rand:10", "lap2d:x", "missing.mtx"} {
		if _, err := Parse(spec, false); err == nil {
			t.Fatalf("%s: expected error", spec)
		}
	}
}

func TestParseMtxFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mtx")
	a := sparse.Must(sparse.Laplacian2D(5))
	if err := sparse.WriteMatrixMarketFile(path, a); err != nil {
		t.Fatal(err)
	}
	b, err := Parse(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.NNZ() != a.NNZ() {
		t.Fatal("mtx round trip changed nnz")
	}
}

func TestParseReorderShortensCriticalPath(t *testing.T) {
	plain, err := Parse("lap2d:60", false)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Parse("lap2d:60", true)
	if err != nil {
		t.Fatal(err)
	}
	cp1, _ := dag.FromLowerCSR(plain.Lower()).CriticalPath()
	cp2, _ := dag.FromLowerCSR(re.Lower()).CriticalPath()
	if cp2 >= cp1 {
		t.Fatalf("reordering did not shorten critical path: %d -> %d", cp1, cp2)
	}
}

func TestSuitesGenerate(t *testing.T) {
	for _, e := range Small() {
		a := e.Gen()
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !a.Symmetric(make([]int, a.Rows), true) {
			t.Fatalf("%s: not symmetric", e.Name)
		}
	}
	// Standard entries must be ordered roughly by nonzeros and stay SPD
	// (spot-check the smallest to keep the test fast).
	std := Standard()
	if len(std) < 5 {
		t.Fatal("standard suite too small")
	}
	a := std[0].Gen()
	if a.NNZ() < 100000 {
		t.Fatalf("standard suite starts below 100K nnz: %d", a.NNZ())
	}
}

func TestBone010Standin(t *testing.T) {
	a := Bone010Standin()
	if a.Rows != 48*48*48 {
		t.Fatalf("standin rows = %d", a.Rows)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}
