package locality

import "testing"

func TestAnalyzerExactDistances(t *testing.T) {
	a := NewAnalyzer(64)
	// Lines A B C A: A's reuse sees 2 distinct lines (B, C) in between.
	addrs := []uintptr{0, 64, 128, 0}
	for _, ad := range addrs {
		a.Access(ad)
	}
	p := a.Profile()
	if p.Cold != 3 {
		t.Fatalf("cold = %d, want 3", p.Cold)
	}
	if p.Accesses != 4 {
		t.Fatalf("accesses = %d", p.Accesses)
	}
	// Distance 2 lands in bucket [2,4) = bucket 1.
	if p.Buckets[1] != 1 {
		t.Fatalf("histogram %v, want distance-2 in bucket 1", p.Buckets)
	}
}

func TestAnalyzerSameLineDistanceZero(t *testing.T) {
	a := NewAnalyzer(64)
	a.Access(0)
	a.Access(8) // same 64-byte line
	p := a.Profile()
	if p.Buckets[0] != 1 || p.Cold != 1 {
		t.Fatalf("profile %+v", p)
	}
}

func TestAnalyzerStackSemantics(t *testing.T) {
	// Sequence A B B A: B's reuse distance 0; A's reuse distance must be 1
	// (only B distinct in between, counted once despite two accesses).
	a := NewAnalyzer(64)
	for _, ad := range []uintptr{0, 64, 64, 0} {
		a.Access(ad)
	}
	p := a.Profile()
	if p.Buckets[0] != 2 {
		t.Fatalf("want two short-distance reuses, got %v", p.Buckets)
	}
}

func TestHitRatioMonotoneInCapacity(t *testing.T) {
	a := NewAnalyzer(64)
	for pass := 0; pass < 3; pass++ {
		for addr := uintptr(0); addr < 1<<14; addr += 64 {
			a.Access(addr)
		}
	}
	p := a.Profile()
	prev := -1.0
	for _, c := range []int{1, 8, 64, 512, 4096} {
		h := p.HitRatio(c)
		if h < prev {
			t.Fatalf("hit ratio not monotone at capacity %d: %v < %v", c, h, prev)
		}
		prev = h
	}
	// A cache holding the full working set (256 lines) hits on every reuse.
	if h := p.HitRatio(512); h < 0.6 {
		t.Fatalf("full-capacity hit ratio %v too low", h)
	}
}

func TestMeanDistanceOrdering(t *testing.T) {
	// A tight loop over few lines must show a smaller mean distance than a
	// scan over many lines.
	tight, scan := NewAnalyzer(64), NewAnalyzer(64)
	for pass := 0; pass < 8; pass++ {
		for addr := uintptr(0); addr < 512; addr += 64 {
			tight.Access(addr)
		}
		for addr := uintptr(0); addr < 1<<15; addr += 64 {
			scan.Access(addr)
		}
	}
	if tight.Profile().MeanDistance() >= scan.Profile().MeanDistance() {
		t.Fatal("tight loop should have smaller mean reuse distance")
	}
}
