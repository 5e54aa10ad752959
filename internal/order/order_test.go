package order

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"sparsefusion/internal/sparse"
)

// permHash is the FNV-1a 64 hash of the permutation as little-endian uint32s.
func permHash(p []int) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range p {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// disconnected is a 12x12 grid, a 200-vertex path and 56 isolated vertices
// under a seeded shuffle, so every part mixes components in no useful order.
func disconnected() *sparse.CSR {
	const grid, path, n = 144, 200, 400
	lab := rand.New(rand.NewSource(9)).Perm(n)
	var ts []sparse.Triplet
	edge := func(u, v int) {
		ts = append(ts, sparse.Triplet{Row: lab[u], Col: lab[v], Val: -1}, sparse.Triplet{Row: lab[v], Col: lab[u], Val: -1})
	}
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 4})
	}
	for r := 0; r < 12; r++ {
		for c := 0; c < 12; c++ {
			if c+1 < 12 {
				edge(12*r+c, 12*r+c+1)
			}
			if r+1 < 12 {
				edge(12*r+c, 12*(r+1)+c)
			}
		}
	}
	for i := grid; i+1 < grid+path; i++ {
		edge(i, i+1)
	}
	return sparse.Must(sparse.FromTriplets(n, n, ts))
}

// unsymmetric has three random off-diagonal entries per row and no mirror
// entries, so the adjacency really is the union of A's and Aᵀ's rows.
func unsymmetric() *sparse.CSR {
	const n = 1500
	rng := rand.New(rand.NewSource(4))
	var ts []sparse.Triplet
	for r := 0; r < n; r++ {
		if r%7 != 0 { // some rows have no diagonal
			ts = append(ts, sparse.Triplet{Row: r, Col: r, Val: 1})
		}
		for k := 0; k < 3; k++ {
			ts = append(ts, sparse.Triplet{Row: r, Col: rng.Intn(n), Val: 1})
		}
	}
	return sparse.Must(sparse.FromTriplets(n, n, ts))
}

// TestNestedDissectionGolden pins the permutation to the one the map-and-sort
// implementation this package started with produced: the schedules every
// benchmark and bit-identity test runs on are a function of it.
func TestNestedDissectionGolden(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		leaf int
		want uint64
	}{
		{"lap2d-100", sparse.Must(sparse.Laplacian2D(100)), 64, 0xd2181e0e2e0c7dd5},
		{"lap3d-20", sparse.Must(sparse.Laplacian3D(20)), 64, 0x447fa2cc91a4f375},
		{"pow-8000-6-s1", sparse.Must(sparse.PowerLawSPD(8000, 6, 1)), 64, 0x7c7054c74cf40429},
		{"pow-8000-6-s2", sparse.Must(sparse.PowerLawSPD(8000, 6, 2)), 64, 0xd22f34960850f90d},
		{"pow-8000-6-s3", sparse.Must(sparse.PowerLawSPD(8000, 6, 3)), 64, 0x487da94a0fef3745},
		{"rand-2000-6-s1", sparse.Must(sparse.RandomSPD(2000, 6, 1)), 64, 0x7256d7dab092096d},
		{"disconnected", disconnected(), 8, 0x8f457ec57541f34d},
		{"unsymmetric", unsymmetric(), 16, 0xcfc2a399660c1e99},
		{"lap2d-30-leaf1", sparse.Must(sparse.Laplacian2D(30)), 1, 0x83702312af8295d1},
		{"lap2d-30-leaf32", sparse.Must(sparse.Laplacian2D(30)), 32, 0x7f06312a174282d1},
		{"lap2d-30-leaf64", sparse.Must(sparse.Laplacian2D(30)), 64, 0x2c9f12b6a3ff73e9},
		{"lap3d-12-leaf1", sparse.Must(sparse.Laplacian3D(12)), 1, 0x17b4d3dd850c6019},
		{"lap3d-12-leaf32", sparse.Must(sparse.Laplacian3D(12)), 32, 0xca678f62a84460b1},
	}
	for _, c := range cases {
		p, err := NestedDissection(c.a, c.leaf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sparse.ValidPerm(p) {
			t.Fatalf("%s: not a permutation", c.name)
		}
		if got := permHash(p); got != c.want {
			t.Errorf("%s: permutation hash %#x, want %#x", c.name, got, c.want)
		}
	}
}

func TestNestedDissectionIsPermutation(t *testing.T) {
	for _, a := range []*sparse.CSR{
		sparse.Must(sparse.Laplacian2D(17)),
		sparse.Must(sparse.RandomSPD(211, 4, 3)),
		sparse.Must(sparse.PowerLawSPD(300, 2, 4)),
	} {
		p, err := NestedDissection(a, 32)
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.ValidPerm(p) {
			t.Fatal("nested dissection output is not a permutation")
		}
	}
}

func TestNestedDissectionSeparatorLast(t *testing.T) {
	// On a path graph the separator is an interior vertex; it must be
	// numbered after both halves.
	n := 64
	var ts []sparse.Triplet
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triplet{Row: i, Col: i, Val: 2})
		if i+1 < n {
			ts = append(ts, sparse.Triplet{Row: i, Col: i + 1, Val: -1}, sparse.Triplet{Row: i + 1, Col: i, Val: -1})
		}
	}
	a, _ := sparse.FromTriplets(n, n, ts)
	p, err := NestedDissection(a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.ValidPerm(p) {
		t.Fatal("not a permutation")
	}
	// The last-numbered vertex must be an interior separator vertex, not an
	// endpoint of the path.
	last := p[len(p)-1]
	if last == 0 || last == n-1 {
		t.Fatalf("last vertex %d is a path endpoint, separator ordering broken", last)
	}
}

func TestNestedDissectionSmallAndEdgeCases(t *testing.T) {
	a := sparse.Must(sparse.Laplacian2D(3))
	p, err := NestedDissection(a, 64) // whole matrix fits in a leaf
	if err != nil {
		t.Fatal(err)
	}
	if !sparse.ValidPerm(p) {
		t.Fatal("leaf-only dissection broken")
	}
	if _, err := NestedDissection(&sparse.CSR{Rows: 2, Cols: 3, P: []int{0, 0, 0}}, 8); err == nil {
		t.Fatal("expected error for rectangular matrix")
	}
	// leafSize < 1 must not loop forever.
	if p, err = NestedDissection(a, 0); err != nil || !sparse.ValidPerm(p) {
		t.Fatal("default leaf size broken")
	}
	if p, err = NestedDissection(&sparse.CSR{P: []int{0}}, 8); err != nil || len(p) != 0 {
		t.Fatalf("empty matrix: perm %v, err %v", p, err)
	}
}

// TestNestedDissectionAllocs guards the inspector's cold path: a dissection
// allocates its graph, its scratch and the permutation once, however deep the
// recursion goes (the map-per-level implementation this replaced allocated
// three maps per recursion level).
func TestNestedDissectionAllocs(t *testing.T) {
	var allocs []float64
	for _, k := range []int{12, 100} { // 1 vs ~8 levels of recursion at leaf 64
		a := sparse.Must(sparse.Laplacian2D(k))
		allocs = append(allocs, testing.AllocsPerRun(5, func() {
			if _, err := NestedDissection(a, 64); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 16 {
		t.Fatalf("allocations per dissection: %v on a shallow recursion, %v on a deep one; want equal and <= 16", allocs[0], allocs[1])
	}
}
