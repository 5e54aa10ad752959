package kernels

import "sync"

// intsPool recycles the counting/cursor workspaces the kernel constructors
// use while assembling their DAGs and read lists. Constructors run
// concurrently — operations opened at once from several goroutines build
// their kernels side by side — so the workspace is a sync.Pool rather than a
// single shared buffer like dag.Scratch; and unlike dag.Scratch's epoch
// stamps, the counting builds need true zeros, so getInts clears the reused
// prefix on checkout.
var intsPool = sync.Pool{New: func() any { return new([]int) }}

// getInts checks out a zeroed length-n workspace. Return it with putInts when
// done; the slice must not be retained past that.
func getInts(n int) *[]int {
	p := intsPool.Get().(*[]int)
	if cap(*p) < n {
		*p = make([]int, n)
	}
	s := (*p)[:n]
	for i := range s {
		s[i] = 0
	}
	*p = s
	return p
}

func putInts(p *[]int) { intsPool.Put(p) }
