package relayout_test

import (
	"context"
	"math"
	"testing"

	"sparsefusion/internal/combos"
	"sparsefusion/internal/exec"
	"sparsefusion/internal/kernels"
	"sparsefusion/internal/relayout"
	"sparsefusion/internal/sparse"
)

// fuzzMatrix builds an n-by-n SPD matrix from a lower-triangular pattern read
// off data, two bytes per strictly-lower entry (row, column), symmetrized and
// made diagonally dominant.
func fuzzMatrix(n int, data []byte) *sparse.CSR {
	var ts []sparse.Triplet
	rowAbs := make([]float64, n)
	for k := 0; k+1 < len(data); k += 2 {
		r, c := int(data[k])%n, int(data[k+1])%n
		if r == c {
			continue
		}
		r, c = max(r, c), min(r, c)
		v := -float64(1+data[k]%7) / 8
		ts = append(ts, sparse.Triplet{Row: r, Col: c, Val: v}, sparse.Triplet{Row: c, Col: r, Val: v})
		rowAbs[r] -= v
		rowAbs[c] -= v
	}
	for r := 0; r < n; r++ {
		ts = append(ts, sparse.Triplet{Row: r, Col: r, Val: rowAbs[r] + 1})
	}
	return sparse.Must(sparse.FromTriplets(n, n, ts))
}

// FuzzRelayout builds the layout of a random packable chain (TRSV-TRSV,
// TRSV-MV, MV-MV or a Gauss-Seidel chain of 1–3 sweeps) over a random
// pattern, inspected at 1–4 threads. The program must rebuild the inspected
// schedule byte for byte (inspect checks it). The layout must build, pass
// CheckExclusive and account for every entry in its Len stream; every stream
// a loop shares must be its private fill, and no scatter loop may share
// (checkSharing). The packed
// runner must return the one-thread walk's bits on the gather chains and, on
// the scatter chain, one set of bits at every pool width.
func FuzzRelayout(f *testing.F) {
	f.Add(uint8(40), uint8(2), uint8(0), []byte{3, 1, 7, 2, 9, 4, 12, 0, 30, 5, 31, 29, 17, 16})
	f.Add(uint8(90), uint8(4), uint8(1), []byte{50, 1, 60, 1, 70, 1, 80, 1, 89, 1, 40, 39, 20, 10, 88, 44})
	f.Add(uint8(64), uint8(3), uint8(2), []byte{63, 0, 62, 1, 61, 2, 60, 3, 33, 32, 5, 4})
	f.Add(uint8(70), uint8(4), uint8(5), []byte{10, 9, 20, 19, 30, 29, 40, 39, 50, 49, 69, 0, 35, 3})
	f.Fuzz(func(t *testing.T, size, threads, chain uint8, pattern []byte) {
		n := 2 + int(size)%120
		th := 1 + int(threads)%4
		a := fuzzMatrix(n, pattern)
		var in *combos.Instance
		var err error
		if c := int(chain) % 6; c < 3 {
			in, err = combos.Build([]combos.ID{combos.TrsvTrsv, combos.TrsvMv, combos.MvMv}[c], a)
		} else {
			in, err = combos.BuildGS(a, c-2)
		}
		if err != nil {
			t.Fatal(err)
		}
		ks := in.Kernels
		sched, prog := inspect(t, in.Loops, in.Reuse, len(ks), th)
		lay, err := relayout.Build(prog, ks)
		if err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if err := relayout.CheckExclusive(prog, lay, ks); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		checkSharing(t, in.Name, prog, lay, ks)
		for l, s := range lay.Streams {
			sum := 0
			for _, ln := range s.Len {
				sum += int(ln)
			}
			if sum != len(s.Idx) || len(s.Val) != len(s.Idx) {
				t.Fatalf("%s loop %d: Len sums to %d over %d indices and %d values", in.Name, l, sum, len(s.Idx), len(s.Val))
			}
		}

		if _, err := exec.RunScheduleSequential(context.Background(), ks, sched); err != nil {
			t.Fatal(err)
		}
		walk := in.Snapshot()
		r := exec.NewRunner(ks, prog)
		if err := r.AttachLayout(lay); err != nil {
			t.Fatal(err)
		}
		scatters := false
		for _, k := range ks {
			_, sc := k.(kernels.SpillScatterer)
			scatters = scatters || sc
		}
		// Gather chains must give the walk's bits; a scatter chain's packed sums
		// associate differently, so its first width sets the bits the others
		// must repeat.
		var want []float64
		if !scatters {
			want = walk
		}
		for _, width := range []int{1, 2, 4} {
			if width < prog.MaxWidth {
				continue // a round needs a slot per w-partition
			}
			pl := exec.NewPool(width, 0)
			_, err := r.RunOn(pl, width)
			pl.Close()
			if err != nil {
				t.Fatal(err)
			}
			got := in.Snapshot()
			if want == nil {
				want = got
				continue
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s threads %d pool width %d: packed output %d is %v, want %v (scatter chain: %v)",
						in.Name, th, width, i, got[i], want[i], scatters)
				}
			}
		}
	})
}
