package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	sf "sparsefusion"
	"sparsefusion/internal/sparse"
)

// Everything the program is fed comes from here and is a function of the
// seed alone: matrices, right-hand sides and request sequences.

// subSeed derives the seed of an independent input stream (splitmix64).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// pattern is one generated matrix held twice: as the facade handle the
// program is driven with, and as the CSR arrays the oracle and the layer
// calls of the traced pass read. The facade does not expose its arrays, so
// both are produced by the same deterministic generator.
type pattern struct {
	name string
	m    *sf.Matrix
	csr  *sparse.CSR
}

func laplacian2D(k int) pattern {
	return pattern{fmt.Sprintf("lap2d:%d", k), sf.Laplacian2D(k), sparse.Must(sparse.Laplacian2D(k))}
}

func laplacian3D(k int) pattern {
	return pattern{fmt.Sprintf("lap3d:%d", k), sf.Laplacian3D(k), sparse.Must(sparse.Laplacian3D(k))}
}

func powerLaw(n, deg int, seed int64) pattern {
	return pattern{fmt.Sprintf("pow:%d:%d", n, deg), sf.PowerLawSPD(n, deg, seed), sparse.Must(sparse.PowerLawSPD(n, deg, seed))}
}

// reordered applies Matrix.Reorder (the library's METIS substitute, paper
// section 4.1) and permutes the twin with the permutation it returns.
func (p pattern) reordered() (pattern, error) {
	mr, perm, err := p.m.Reorder()
	if err != nil {
		return pattern{}, fmt.Errorf("%s: reorder: %w", p.name, err)
	}
	cr, err := sparse.PermuteSym(p.csr, perm)
	if err != nil {
		return pattern{}, fmt.Errorf("%s: permute twin: %w", p.name, err)
	}
	if cr.NNZ() != mr.NNZ() || cr.Rows != mr.Rows() {
		return pattern{}, fmt.Errorf("%s: twin diverged from the facade matrix", p.name)
	}
	return pattern{p.name, mr, cr}, nil
}

// rhsVector is a dense vector of standard normal entries.
func rhsVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// hashCSR fingerprints a matrix, structure and values.
func hashCSR(a *sparse.CSR) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(a.Rows))
	put(uint64(a.Cols))
	for _, v := range a.P {
		put(uint64(v))
	}
	for _, v := range a.I {
		put(uint64(v))
	}
	for _, v := range a.X {
		put(math.Float64bits(v))
	}
	return h.Sum64()
}

// zipfCDF is the cumulative distribution of rank k ~ 1/k^s over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// zipfWeights are the per-rank probabilities behind zipfCDF.
func zipfWeights(n int, s float64) []float64 {
	cdf := zipfCDF(n, s)
	w := make([]float64, n)
	prev := 0.0
	for k, c := range cdf {
		w[k], prev = c-prev, c
	}
	return w
}

// request is one unit of the serve-zipf workload.
type request struct {
	pattern int  // index into the pattern set, rank 0 the most popular
	open    bool // open a new session (true) or re-solve on the existing one
	rhs     int  // index into the pattern's right-hand-side pool
}

// requestStream is one client's seeded request sequence.
type requestStream struct {
	rng      *rand.Rand
	cdf      []float64
	openFrac float64
	rhsPool  int
}

func newRequestStream(seed int64, client, patterns, rhsPool int, zipfS, openFrac float64) *requestStream {
	return &requestStream{
		rng:      rand.New(rand.NewSource(subSeed(seed, 1000+uint64(client)))),
		cdf:      zipfCDF(patterns, zipfS),
		openFrac: openFrac,
		rhsPool:  rhsPool,
	}
}

func (s *requestStream) next() request {
	return request{
		pattern: min(sort.SearchFloat64s(s.cdf, s.rng.Float64()), len(s.cdf)-1),
		open:    s.rng.Float64() < s.openFrac,
		rhs:     s.rng.Intn(s.rhsPool),
	}
}
