// Package atomicf provides lock-free atomic accumulation on float64 values,
// the Go equivalent of the paper's "Atomic:" annotation on scatter updates
// (figure 2a line 11): CSC-side kernels executed in parallel scatter into a
// shared dense vector and need atomic read-modify-write.
package atomicf

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Add atomically performs *addr += delta using a compare-and-swap loop.
func Add(addr *float64, delta float64) {
	bits := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(bits)
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(bits, old, new) {
			return
		}
	}
}
