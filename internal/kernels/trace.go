package kernels

import "reflect"

// Tracer is implemented by kernels that can replay the memory-access stream
// of one iteration without executing it, for the cache simulator behind the
// paper's figure 6 (average memory access latency). Addresses are the real
// virtual addresses of the backing arrays, so layout effects (stride within
// a row, reuse across kernels sharing an array) are captured faithfully.
//
// Trace replays iteration i reading its operand run through v: in place in
// the matrix-order arrays (MatrixView) or from a schedule-order stream
// (PackedStream.View). One body serves both; the factorization kernels, which
// have no packed form, read their matrices themselves and ignore v.
type Tracer interface {
	Trace(i int, v View, emit func(addr uintptr))
}

// View is one iteration's operand run as a trace body reads it: where its
// index and value entries live and what the indices are.
type View struct {
	idx    []int   // matrix-order indices
	idx32  []int32 // packed indices; a negative one names a spill slot
	packed bool
	// idxAt and valAt are the addresses of entry 0's index and value; indices
	// are idxSize bytes wide.
	idxAt, valAt, idxSize uintptr
	pos                   int // Operands' pos, or the stream's Pos slot; -1 if none
}

// MatrixView is iteration i's operand run read in place: a PackedKernel's
// Operands; the empty view for the kernels without one.
func MatrixView(k Kernel, i int) View {
	pk, ok := k.(PackedKernel)
	if !ok {
		return View{}
	}
	idx, val, pos := pk.Operands(i)
	return View{idx: idx, idxAt: base(idx), valAt: base(val), idxSize: wordSize, pos: pos}
}

// View is occurrence it of the stream, whose entries start at ent. It emits
// the Len[it] read the packed body makes before any other.
func (s *PackedStream) View(ent, it int, emit func(uintptr)) View {
	emit(base(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	v := View{
		idx32: s.Idx[ent : ent+n], packed: true,
		idxAt: base(s.Idx) + uintptr(ent)*int32Size, valAt: base(s.Val) + uintptr(ent)*wordSize,
		idxSize: int32Size, pos: -1,
	}
	if len(s.Pos) > 0 {
		v.pos = int(s.Pos[it])
	}
	return v
}

// Len is the number of entries in the run.
func (v View) Len() int {
	if v.packed {
		return len(v.idx32)
	}
	return len(v.idx)
}

func (v View) at(c int) int {
	if v.packed {
		return int(v.idx32[c])
	}
	return v.idx[c]
}

func (v View) valAddr(c int) uintptr { return v.valAt + uintptr(c)*wordSize }

// entries replays entries [0,n): each one's index, its value and the word of
// vec the index selects — or the spill slot a redirected index names, spill
// being the slots' base.
func (v View) entries(n int, vec, spill uintptr, emit func(uintptr)) {
	for c := 0; c < n; c++ {
		emit(v.idxAt + uintptr(c)*v.idxSize)
		emit(v.valAddr(c))
		emit(scatterAddr(vec, spill, v.at(c)))
	}
}

// valuesIn is v with its matrix-order values read from x at the run's
// position: DSCAL packs its a0 snapshot but Run reads A.X.
func (v View) valuesIn(x []float64) View {
	if !v.packed {
		v.valAt = base(x) + uintptr(v.pos)*wordSize
	}
	return v
}

// scatterAddr is the word an entry updates, given the bases of the target
// vector and the spill slots: the target entry, or the slot a negative packed
// entry redirects to (an unbound kernel's slots trace as an array at address
// zero, distinct from every real one).
func scatterAddr(target, spill uintptr, t int) uintptr {
	if t < 0 {
		return spill + uintptr(^t)*wordSize
	}
	return target + uintptr(t)*wordSize
}

// base is the address of x's first element; 0 for an empty slice.
func base[E any](x []E) uintptr {
	if len(x) == 0 {
		return 0
	}
	return reflect.ValueOf(x).Pointer()
}

const (
	wordSize  = 8
	int32Size = 4
)

// Trace replays SpMV-CSR row i: row values+indices, gathered X, stored Y.
func (k *SpMVCSR) Trace(i int, v View, emit func(uintptr)) {
	v.entries(v.Len(), base(k.X), 0, emit)
	emit(base(k.Y) + uintptr(i)*wordSize)
}

// Trace replays SpMV-CSC column j: X[j], column values+indices, scattered Y.
func (k *SpMVCSC) Trace(j int, v View, emit func(uintptr)) {
	emit(base(k.X) + uintptr(j)*wordSize)
	v.entries(v.Len(), base(k.Y), base(k.spill), emit)
}

// Trace replays SpMV+b row i.
func (k *SpMVPlusCSR) Trace(i int, v View, emit func(uintptr)) {
	emit(base(k.B) + uintptr(i)*wordSize)
	v.entries(v.Len(), base(k.X), 0, emit)
	emit(base(k.Y) + uintptr(i)*wordSize)
}

// Trace replays SpTRSV-CSR row i (diagonal last).
func (k *SpTRSVCSR) Trace(i int, v View, emit func(uintptr)) {
	vx, n := base(k.X), v.Len()
	emit(base(k.B) + uintptr(i)*wordSize)
	v.entries(n-1, vx, 0, emit)
	emit(v.valAddr(n - 1))
	emit(vx + uintptr(i)*wordSize)
}

// Trace replays SpTRSV-CSC column j.
func (k *SpTRSVCSC) Trace(j int, v View, emit func(uintptr)) {
	emit(base(k.B) + uintptr(j)*wordSize)
	v.entries(v.Len(), base(k.X), base(k.spill), emit)
}

// Trace replays SpTRSV-trans-CSC iteration i (column Cols-1-i).
func (k *SpTRSVTransCSC) Trace(i int, v View, emit func(uintptr)) {
	emit(base(k.B) + uintptr(k.L.Cols-1-i)*wordSize)
	v.entries(v.Len(), base(k.X), 0, emit)
}

// Trace replays the unit-lower TRSV row i.
func (k *SpTRSVUnitLowerCSR) Trace(i int, v View, emit func(uintptr)) {
	vx := base(k.X)
	emit(base(k.B) + uintptr(i)*wordSize)
	v.entries(v.Len(), vx, 0, emit)
	emit(vx + uintptr(i)*wordSize)
}

// Trace replays DSCAL-CSR row i.
func (k *DScalCSR) Trace(i int, v View, emit func(uintptr)) {
	traceScale(i, v.valuesIn(k.A.X), k.D, k.Out.X, emit)
}

// Trace replays DSCAL-CSC column j.
func (k *DScalCSC) Trace(j int, v View, emit func(uintptr)) {
	traceScale(j, v.valuesIn(k.A.X), k.D, k.Out.X, emit)
}

// traceScale is the DSCAL body: D[i], then per entry its index and value, the
// scale factor it selects and the output it writes at its original position.
func traceScale(i int, v View, d, out []float64, emit func(uintptr)) {
	bd, bo := base(d), base(out)
	emit(bd + uintptr(i)*wordSize)
	for c := 0; c < v.Len(); c++ {
		emit(v.idxAt + uintptr(c)*v.idxSize)
		emit(v.valAddr(c))
		emit(bd + uintptr(v.at(c))*wordSize)
		emit(bo + uintptr(v.pos+c)*wordSize)
	}
}

// Trace replays SpIC0-CSC column j: the columns it merges plus itself.
func (k *SpIC0CSC) Trace(j int, _ View, emit func(uintptr)) {
	l := k.L
	bx, bi := base(l.X), base(l.I)
	for _, ref := range k.reads(j) {
		for p := ref.idx; p < l.P[ref.col+1]; p++ {
			emit(bi + uintptr(p)*wordSize)
			emit(bx + uintptr(p)*wordSize)
		}
	}
	for p := l.P[j]; p < l.P[j+1]; p++ {
		emit(bi + uintptr(p)*wordSize)
		emit(bx + uintptr(p)*wordSize)
	}
}

// Trace replays SpILU0-CSR row i: the pivot rows it merges plus itself.
func (k *SpILU0CSR) Trace(i int, _ View, emit func(uintptr)) {
	a := k.A
	bx, bi := base(a.X), base(a.I)
	for p := a.P[i]; p < a.P[i+1] && a.I[p] < i; p++ {
		kk := a.I[p]
		for q := k.diag[kk]; q < a.P[kk+1]; q++ {
			emit(bi + uintptr(q)*wordSize)
			emit(bx + uintptr(q)*wordSize)
		}
	}
	for p := a.P[i]; p < a.P[i+1]; p++ {
		emit(bi + uintptr(p)*wordSize)
		emit(bx + uintptr(p)*wordSize)
	}
}
