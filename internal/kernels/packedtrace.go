package kernels

import "reflect"

// Packed-stream counterparts of the Tracer implementations in trace.go: each
// TracePacked replays the memory accesses of one packed iteration — the
// occurrence's Len slot, the sequential int32 index and float64 value
// entries, and the same vector traffic as the matrix-order body — and
// returns the advanced entry cursor. The cache simulator replays a packed
// runner's steps through these to quantify the locality the re-layout buys
// (internal/cachesim).

const int32Size = 4

func baseInt32(x []int32) uintptr {
	if len(x) == 0 {
		return 0
	}
	return reflect.ValueOf(x).Pointer()
}

// TracePacked replays packed SpMV-CSR row i.
func (k *SpMVCSR) TracePacked(i int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	vx := base(k.X)
	for c := ent; c < ent+n; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(vx + uintptr(s.Idx[c])*wordSize)
	}
	emit(base(k.Y) + uintptr(i)*wordSize)
	return ent + n
}

// scatterAddr is the word a packed scatter entry updates, given the bases of
// the target vector and the spill slots: the target entry, or the slot a
// negative entry redirects to (an unbound kernel's slots trace as an array at
// address zero, distinct from every real one).
func scatterAddr(target, spill uintptr, t int32) uintptr {
	if t < 0 {
		return spill + uintptr(^t)*wordSize
	}
	return target + uintptr(t)*wordSize
}

// TracePacked replays packed SpMV-CSC column j.
func (k *SpMVCSC) TracePacked(j int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	by, bs := base(k.Y), base(k.spill)
	emit(base(k.X) + uintptr(j)*wordSize)
	for c := ent; c < ent+n; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(scatterAddr(by, bs, s.Idx[c]))
	}
	return ent + n
}

// TracePacked replays packed SpMV+b row i.
func (k *SpMVPlusCSR) TracePacked(i int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	vx := base(k.X)
	emit(base(k.B) + uintptr(i)*wordSize)
	for c := ent; c < ent+n; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(vx + uintptr(s.Idx[c])*wordSize)
	}
	emit(base(k.Y) + uintptr(i)*wordSize)
	return ent + n
}

// TracePacked replays packed SpTRSV-CSR row i.
func (k *SpTRSVCSR) TracePacked(i int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	vx := base(k.X)
	emit(base(k.B) + uintptr(i)*wordSize)
	for c := ent; c < ent+n-1; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(vx + uintptr(s.Idx[c])*wordSize)
	}
	emit(bv + uintptr(ent+n-1)*wordSize)
	emit(vx + uintptr(i)*wordSize)
	return ent + n
}

// TracePacked replays packed SpTRSV-CSC column j.
func (k *SpTRSVCSC) TracePacked(j int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	vx, bs := base(k.X), base(k.spill)
	emit(base(k.B) + uintptr(j)*wordSize)
	for c := ent; c < ent+n; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(scatterAddr(vx, bs, s.Idx[c]))
	}
	return ent + n
}

// TracePacked replays packed SpTRSV-trans-CSC iteration i (column n-1-i).
func (k *SpTRSVTransCSC) TracePacked(i int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	vx := base(k.X)
	emit(base(k.B) + uintptr(k.L.Cols-1-i)*wordSize)
	for c := ent; c < ent+n; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(vx + uintptr(s.Idx[c])*wordSize)
	}
	return ent + n
}

// TracePacked replays packed unit-lower TRSV row i.
func (k *SpTRSVUnitLowerCSR) TracePacked(i int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	vx := base(k.X)
	emit(base(k.B) + uintptr(i)*wordSize)
	for c := ent; c < ent+n; c++ {
		emit(bi + uintptr(c)*int32Size)
		emit(bv + uintptr(c)*wordSize)
		emit(vx + uintptr(s.Idx[c])*wordSize)
	}
	emit(vx + uintptr(i)*wordSize)
	return ent + n
}

// TracePacked replays packed DSCAL-CSR row i.
func (k *DScalCSR) TracePacked(i int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	bd := base(k.D)
	bo := base(k.Out.X)
	p0 := int(s.Pos[it])
	emit(bd + uintptr(i)*wordSize)
	for c := 0; c < n; c++ {
		emit(bi + uintptr(ent+c)*int32Size)
		emit(bv + uintptr(ent+c)*wordSize)
		emit(bd + uintptr(s.Idx[ent+c])*wordSize)
		emit(bo + uintptr(p0+c)*wordSize)
	}
	return ent + n
}

// TracePacked replays packed DSCAL-CSC column j.
func (k *DScalCSC) TracePacked(j int, s *PackedStream, ent, it int, emit func(uintptr)) int {
	emit(baseInt32(s.Len) + uintptr(it)*int32Size)
	n := int(s.Len[it])
	bi, bv := baseInt32(s.Idx), base(s.Val)
	bd := base(k.D)
	bo := base(k.Out.X)
	p0 := int(s.Pos[it])
	emit(bd + uintptr(j)*wordSize)
	for c := 0; c < n; c++ {
		emit(bi + uintptr(ent+c)*int32Size)
		emit(bv + uintptr(ent+c)*wordSize)
		emit(bd + uintptr(s.Idx[ent+c])*wordSize)
		emit(bo + uintptr(p0+c)*wordSize)
	}
	return ent + n
}

// Compile-time checks that every packed kernel is also traceable.
var (
	_ PackedTracer = (*SpMVCSR)(nil)
	_ PackedTracer = (*SpMVCSC)(nil)
	_ PackedTracer = (*SpMVPlusCSR)(nil)
	_ PackedTracer = (*SpTRSVCSR)(nil)
	_ PackedTracer = (*SpTRSVCSC)(nil)
	_ PackedTracer = (*SpTRSVTransCSC)(nil)
	_ PackedTracer = (*SpTRSVUnitLowerCSR)(nil)
	_ PackedTracer = (*DScalCSR)(nil)
	_ PackedTracer = (*DScalCSC)(nil)
)
