// Package locality computes exact LRU stack-distance (reuse-distance)
// profiles from kernel address traces — a machine-independent locality
// metric that complements the cache simulator behind figure 6: where the
// simulator answers "what would this hierarchy do", the reuse-distance
// histogram answers "how much locality does this schedule have", for every
// cache size at once.
//
// The classic Mattson algorithm is implemented with a Fenwick tree: for
// every access, the stack distance is the number of *distinct* cache lines
// touched since that line's previous access. A hit in a cache of capacity C
// lines (fully associative, LRU) is exactly distance < C.
//
// cachesim.Profile feeds an implementation's steps through one Analyzer per
// thread slot, with the same walker that drives the cache simulator.
package locality

import "math/bits"

// Profile is a reuse-distance histogram in power-of-two buckets:
// Buckets[k] counts accesses with stack distance in [2^k, 2^(k+1)) lines
// (Buckets[0] covers distances 0 and 1). Cold first touches are counted in
// Cold.
type Profile struct {
	Buckets  [40]int64
	Cold     int64
	Accesses int64
}

func bucket(d int64) int {
	if d < 2 {
		return 0
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= len(Profile{}.Buckets) {
		b = len(Profile{}.Buckets) - 1
	}
	return b
}

// HitRatio returns the fraction of accesses whose stack distance is below
// capacityLines — the hit ratio of a fully associative LRU cache of that
// many lines.
func (p Profile) HitRatio(capacityLines int) float64 {
	if p.Accesses == 0 {
		return 0
	}
	var hits int64
	for k, c := range p.Buckets {
		lo := int64(1) << uint(k)
		if k == 0 {
			lo = 0
		}
		hi := int64(1) << uint(k+1)
		switch {
		case hi <= int64(capacityLines):
			hits += c
		case lo < int64(capacityLines):
			// Partial bucket: assume uniform spread inside the bucket.
			span := hi - lo
			hits += c * (int64(capacityLines) - lo) / span
		}
	}
	return float64(hits) / float64(p.Accesses)
}

// MeanDistance returns the average stack distance over non-cold accesses,
// using each bucket's geometric midpoint.
func (p Profile) MeanDistance() float64 {
	var sum float64
	var n int64
	for k, c := range p.Buckets {
		if c == 0 {
			continue
		}
		mid := float64(int64(1)<<uint(k)) * 1.5
		if k == 0 {
			mid = 1
		}
		sum += mid * float64(c)
		n += c
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Analyzer accumulates one access stream's profile.
type Analyzer struct {
	lineShift uint
	lastPos   map[uint64]int64 // line -> position of its most recent access
	tree      fenwick
	clock     int64
	prof      Profile
}

// NewAnalyzer profiles a stream with the given cache-line size (power of
// two; 64 is typical).
func NewAnalyzer(lineSize int) *Analyzer {
	shift := uint(6)
	for s := uint(0); s < 16; s++ {
		if 1<<s == lineSize {
			shift = s
		}
	}
	return &Analyzer{lineShift: shift, lastPos: make(map[uint64]int64)}
}

// Access records one address.
func (a *Analyzer) Access(addr uintptr) {
	line := uint64(addr) >> a.lineShift
	a.prof.Accesses++
	pos := a.clock
	a.clock++
	a.tree.grow(pos + 1)
	if last, seen := a.lastPos[line]; seen {
		// Distinct lines touched strictly after `last`: ones in (last, pos).
		d := a.tree.sum(pos) - a.tree.sum(last)
		a.prof.Buckets[bucket(d)]++
		a.tree.add(last, -1)
	} else {
		a.prof.Cold++
	}
	a.tree.add(pos, 1)
	a.lastPos[line] = pos
}

// Profile returns the accumulated histogram.
func (a *Analyzer) Profile() Profile { return a.prof }

// fenwick is a grow-on-demand binary indexed tree over access positions.
type fenwick struct {
	t []int64
}

func (f *fenwick) grow(n int64) {
	for int64(len(f.t)) < n {
		f.t = append(f.t, 0)
	}
}

func (f *fenwick) add(i int64, v int64) {
	for i++; i <= int64(len(f.t)); i += i & (-i) {
		f.t[i-1] += v
	}
}

// sum returns the prefix sum over positions [0, i).
func (f *fenwick) sum(i int64) int64 {
	var s int64
	for ; i > 0; i -= i & (-i) {
		s += f.t[i-1]
	}
	return s
}
