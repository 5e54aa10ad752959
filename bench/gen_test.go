package main

import (
	"reflect"
	"testing"
)

func firstRequests(seed int64, client, n int) []request {
	s := newRequestStream(seed, client, srvPatterns, srvRHSPool, srvZipfS, srvOpenFrac)
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	// Matrices: unit 0 of the churn stream is a power-law pattern.
	p1, c1, in1 := churnInput(1, 0)
	p1b, c1b, in1b := churnInput(1, 0)
	p2, _, in2 := churnInput(2, 0)
	if hashCSR(p1.csr) != hashCSR(p1b.csr) || c1 != c1b || !bitEqual(in1, in1b) {
		t.Error("the same seed gave different inputs")
	}
	if hashCSR(p1.csr) == hashCSR(p2.csr) || bitEqual(in1, in2) {
		t.Error("different seeds gave the same inputs")
	}
	if p1.m.NNZ() != p1.csr.NNZ() || p1.m.Rows() != p1.csr.Rows {
		t.Error("the facade matrix and its twin differ")
	}
	// One cycle covers both matrix kinds with all seven combinations.
	seen := map[string]bool{}
	for i := 0; i < churnCycle; i++ {
		kind := "lap"
		if i%2 == 0 {
			kind = "pow"
		}
		seen[kind+churnCombos[i%len(churnCombos)].String()] = true
	}
	if len(seen) != churnCycle {
		t.Errorf("a cycle covers %d of %d (kind, combination) pairs", len(seen), churnCycle)
	}

	// Request sequences, per client.
	a, b := firstRequests(1, 0, 500), firstRequests(1, 0, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, firstRequests(2, 0, 500)) || reflect.DeepEqual(a, firstRequests(1, 1, 500)) {
		t.Error("another seed or client replays the same request sequence")
	}
	opens, top := 0, 0
	for _, r := range a {
		if r.pattern < 0 || r.pattern >= srvPatterns || r.rhs < 0 || r.rhs >= srvRHSPool {
			t.Fatalf("request out of range: %+v", r)
		}
		if r.open {
			opens++
		}
		if r.pattern == 0 {
			top++
		}
	}
	if opens < 90 || opens > 160 { // 25% of 500
		t.Errorf("%d of 500 requests open a session, want about 125", opens)
	}
	if w := zipfWeights(srvPatterns, srvZipfS); top < 100 || !near(w[0]/w[1], 2.1435469250725863) { // 2^1.1
		t.Errorf("rank 0 drew %d of 500 requests, weights %v", top, w[:2])
	}
	if subSeed(1, 0) == subSeed(1, 1) || subSeed(1, 0) == subSeed(2, 0) || subSeed(1, 0) < 0 {
		t.Error("subSeed does not separate streams")
	}
}
