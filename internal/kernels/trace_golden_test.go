package kernels

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"sparsefusion/internal/sparse"
)

// Golden access streams of every traceable kernel, in the matrix-order view
// and against a packed stream. Addresses are normalized to (array, element
// offset), so the hashes pin the sequence of accesses, not where the arrays
// happen to be allocated.

// region is one array an access may land in.
type region struct {
	name       string
	base, size uintptr // first byte, length in bytes
	elem       uintptr
}

// kernelRegions lists the slices reachable from a kernel's fields — its own
// and those of the matrices it points at — named by field path.
func kernelRegions(k Kernel) []region {
	var rs []region
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for f := 0; f < v.NumField(); f++ {
			fv, name := v.Field(f), prefix+v.Type().Field(f).Name
			switch fv.Kind() {
			case reflect.Slice:
				if fv.Len() > 0 && fv.Type().Elem().Kind() != reflect.Slice {
					sz := fv.Type().Elem().Size()
					rs = append(rs, region{name, fv.Pointer(), uintptr(fv.Len()) * sz, sz})
				}
			case reflect.Pointer:
				if fv.IsNil() {
					continue
				}
				switch fv.Type().Elem() {
				case reflect.TypeOf(sparse.CSR{}), reflect.TypeOf(sparse.CSC{}):
					walk(name+".", fv.Elem())
				}
			}
		}
	}
	walk("", reflect.ValueOf(k).Elem())
	return rs
}

func sliceRegion[T any](name string, x []T) region {
	var z T
	sz := reflect.TypeOf(z).Size()
	if len(x) == 0 {
		return region{name: name, elem: sz}
	}
	return region{name, reflect.ValueOf(x).Pointer(), uintptr(len(x)) * sz, sz}
}

// accessHash hashes an access stream normalized against regions (first match
// wins); an address in no region fails the test.
type accessHash struct {
	t       *testing.T
	regions []region
	lines   []byte
	n       int
}

func (h *accessHash) emit(addr uintptr) {
	for _, r := range h.regions {
		if r.size > 0 && addr >= r.base && addr < r.base+r.size {
			if (addr-r.base)%r.elem != 0 {
				h.t.Fatalf("access %#x is not aligned to an element of %s", addr, r.name)
			}
			h.lines = fmt.Appendf(h.lines, "%s:%d\n", r.name, (addr-r.base)/r.elem)
			h.n++
			return
		}
	}
	h.t.Fatalf("access %#x lands in no known array", addr)
}

func (h *accessHash) sum() string {
	s := sha256.Sum256(h.lines)
	return fmt.Sprintf("%d:%s", h.n, hex.EncodeToString(s[:8]))
}

// traceOrder is the iteration order both views replay: a fixed permutation,
// so the packed stream is not simply matrix order.
func traceOrder(n int) []int {
	ord := make([]int, n)
	for o := range ord {
		ord[o] = (o * 7) % n
	}
	return ord
}

// traceKernels builds one instance of every traceable kernel over private
// arrays, so no two regions alias.
func traceKernels(n int) map[string]Kernel {
	a := sparse.Must(sparse.RandomSPD(n, 5, 61))
	vec := func(seed int64) []float64 { return sparse.RandomVec(n, seed) }
	lower := func() *sparse.CSR { return a.Lower() }
	ilu, err := NewSpILU0CSR(a.Clone())
	if err != nil {
		panic(err)
	}
	return map[string]Kernel{
		"spmv-csr":             NewSpMVCSR(a.Clone(), vec(1), vec(2)),
		"spmv-csc":             NewSpMVCSC(a.ToCSC(), vec(1), vec(2)),
		"spmv-plus-csr":        NewSpMVPlusCSR(a.Clone(), vec(1), vec(2), vec(3)),
		"sptrsv-csr":           NewSpTRSVCSR(lower(), vec(1), vec(2)),
		"sptrsv-csc":           NewSpTRSVCSC(lower().ToCSC(), vec(1), vec(2)),
		"sptrsv-trans-csc":     NewSpTRSVTransCSC(lower().ToCSC(), vec(1), vec(2)),
		"sptrsv-unitlower-csr": NewSpTRSVUnitLowerCSR(a.Clone(), vec(1), vec(2)),
		"dscal-csr":            NewDScalCSR(a.Clone(), JacobiScaling(a), a.Clone()),
		"dscal-csc":            NewDScalCSC(a.ToCSC(), JacobiScaling(a), a.ToCSC()),
		"spic0-csc":            NewSpIC0CSC(lower().ToCSC()),
		"spilu0-csr":           ilu,
	}
}

// goldenTraces are the normalized access-stream hashes ("accesses:sha256
// prefix") of traceKernels(48) replayed in traceOrder, per view.
var goldenTraces = map[string]string{
	"dscal-csc/matrix":            "1320:8a582a97178c2285",
	"dscal-csc/packed":            "1368:c72f0775fd4e5c5c",
	"dscal-csr/matrix":            "1320:8a582a97178c2285",
	"dscal-csr/packed":            "1368:c72f0775fd4e5c5c",
	"spic0-csc/matrix":            "1060:cf384238f2c4dcfe",
	"spilu0-csr/matrix":           "2024:4e127d222e880f6e",
	"spmv-csc/matrix":             "1002:05621b0507168cea",
	"spmv-csc/packed":             "1050:8e249de81ce53875",
	"spmv-csr/matrix":             "1002:c91bf1a80ee49ea3",
	"spmv-csr/packed":             "1050:d92cad2fd498295d",
	"spmv-plus-csr/matrix":        "1050:6b059a3de9d23d1b",
	"spmv-plus-csr/packed":        "1098:f5f0a2c08ac53fe5",
	"sptrsv-csc/matrix":           "597:1584ffc0ad4626b0",
	"sptrsv-csc/packed":           "645:8ff3c1596887034b",
	"sptrsv-csr/matrix":           "549:a206cfc1926f6f83",
	"sptrsv-csr/packed":           "597:6648dfaa5985af4b",
	"sptrsv-trans-csc/matrix":     "597:291534f9533ed2b7",
	"sptrsv-trans-csc/packed":     "645:1f6c30cceb5cca39",
	"sptrsv-unitlower-csr/matrix": "501:641e5714f5c7e895",
	"sptrsv-unitlower-csr/packed": "549:88b860171f5ea70b",
}

// TestTraceGolden replays every traceable kernel in both views and compares
// the normalized streams with the pinned hashes. The packed view reads a
// stream packed in the same order, and the scatter kernels' streams redirect
// every third update into one of five bound spill slots, so the slot
// addresses are part of what is pinned.
func TestTraceGolden(t *testing.T) {
	const n = 48
	ord := traceOrder(n)
	got := map[string]string{}
	for name, k := range traceKernels(n) {
		tr := k.(Tracer)
		h := &accessHash{t: t, regions: kernelRegions(k)}
		for _, i := range ord {
			tr.Trace(i, MatrixView(k, i), h.emit)
		}
		got[name+"/matrix"] = h.sum()
		pk, ok := k.(PackedKernel)
		if !ok {
			continue
		}
		s := &PackedStream{}
		for _, i := range ord {
			appendRun(s, pk, i)
		}
		var spill []float64
		if sc, ok := k.(SpillScatterer); ok {
			_, skip := sc.ScatterShape()
			spill = make([]float64, 5)
			sc.BindSpill(spill)
			ent := 0
			for _, ln := range s.Len {
				for c := ent + skip; c < ent+int(ln); c++ {
					if c%3 == 0 {
						s.Idx[c] = ^int32(c % 5)
					}
				}
				ent += int(ln)
			}
		}
		h = &accessHash{t: t, regions: append(kernelRegions(k),
			sliceRegion("stream.Idx", s.Idx), sliceRegion("stream.Val", s.Val),
			sliceRegion("stream.Len", s.Len), sliceRegion("stream.Pos", s.Pos), sliceRegion("spill", spill))}
		ent := 0
		for it, i := range ord {
			v := s.View(ent, it, h.emit)
			tr.Trace(i, v, h.emit)
			ent += v.Len()
		}
		if ent != len(s.Idx) {
			t.Fatalf("%s: packed trace ended at entry %d of %d", name, ent, len(s.Idx))
		}
		got[name+"/packed"] = h.sum()
	}
	for key, sum := range got {
		if want, ok := goldenTraces[key]; !ok || sum != want {
			t.Errorf("%s: trace %s, golden %q", key, sum, want)
		}
	}
	for key := range goldenTraces {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: golden trace no longer produced", key)
		}
	}
}
