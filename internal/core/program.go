package core

import (
	"fmt"

	"sparsefusion/internal/kernels"
)

// Program is a Schedule compiled into contiguous CSR-style arrays so the
// executor's inner loop walks one flat int32 slice instead of three levels
// of pointer-chasing []Iter slices. Iterations are packed with the loop tag
// in the high bits (kernels.PackIter); w-partitions and s-partitions become
// offset ranges; and single-loop run segments — the units the executor
// dispatches with one kernels.BatchRunner call — are precomputed.
//
// Layout (all CSR-style, end-exclusive):
//
//	Iters[WOff[w]:WOff[w+1]]      packed iterations of w-partition w
//	WOff[SOff[s]:SOff[s+1]+1]     w-partitions of s-partition s
//	Iters[SegOff[g]:SegOff[g+1]]  run segment g, all tagged SegLoop[g]
//	SegLoop[WSeg[w]:WSeg[w+1]]    run segments of w-partition w
//
// The w-partition numbering is global and in execution order: s-partition s
// owns w-partitions SOff[s] through SOff[s+1]-1.
type Program struct {
	Iters   []int32
	WOff    []int32
	SOff    []int32
	SegOff  []int32
	SegLoop []uint8
	WSeg    []int32

	// SegIter[g] is the number of loop-SegLoop[g] iterations scheduled in
	// segments before g: the per-loop occurrence cursor at which segment g
	// starts. A schedule-order operand re-layout (internal/relayout) lays its
	// per-loop streams out in this occurrence order, so SegIter is the stream
	// offset metadata that aligns segments with their packed data.
	SegIter []int32

	// NumLoops is the fused chain length the tags were packed against.
	NumLoops int
	// MaxWidth is the maximum number of w-partitions in any s-partition.
	MaxWidth int
	// Interleaved and ReuseRatio record the source schedule's packing
	// variant and the locality metric that chose it, so Decompile rebuilds
	// the schedule exactly (same Schedule.Bytes).
	Interleaved bool
	ReuseRatio  float64
}

// NumSPartitions returns the number of barriers.
func (p *Program) NumSPartitions() int { return len(p.SOff) - 1 }

// NumWPartitions returns the total number of w-partitions.
func (p *Program) NumWPartitions() int { return len(p.WOff) - 1 }

// NumIterations returns the total number of scheduled iterations.
func (p *Program) NumIterations() int { return len(p.Iters) }

// NumSegments returns the number of single-loop run segments.
func (p *Program) NumSegments() int { return len(p.SegLoop) }

// Width returns the number of w-partitions of s-partition s.
func (p *Program) Width(s int) int { return int(p.SOff[s+1] - p.SOff[s]) }

// ProgramBuilder assembles a Program stream in execution order. Callers open
// structure with StartS/StartW and append iterations with Add; segment
// boundaries are derived from loop-tag changes.
type ProgramBuilder struct {
	prog    *Program
	sCounts []int32
	wOpen   bool
	segLast int     // loop of the open segment, -1 when none
	seen    []int32 // iterations appended so far, per loop (feeds SegIter)
}

// NewProgramBuilder starts a builder for a chain of numLoops loops.
func NewProgramBuilder(numLoops int) (*ProgramBuilder, error) {
	if numLoops < 1 || numLoops > kernels.MaxLoops {
		return nil, fmt.Errorf("core: cannot compile %d loops into a program (max %d)", numLoops, kernels.MaxLoops)
	}
	return &ProgramBuilder{
		prog: &Program{
			WOff:     []int32{0},
			SegOff:   []int32{0},
			WSeg:     []int32{0},
			NumLoops: numLoops,
		},
		segLast: -1,
		seen:    make([]int32, numLoops),
	}, nil
}

// StartS opens a new s-partition (closing any open w-partition).
func (b *ProgramBuilder) StartS() {
	b.closeW()
	b.sCounts = append(b.sCounts, 0)
}

// StartW opens a new w-partition inside the current s-partition.
func (b *ProgramBuilder) StartW() error {
	if len(b.sCounts) == 0 {
		return fmt.Errorf("core: StartW before StartS")
	}
	b.closeW()
	b.wOpen = true
	b.sCounts[len(b.sCounts)-1]++
	return nil
}

// Add appends iteration idx of loop to the open w-partition. The packed
// entry is built through kernels.PackIterChecked, so a loop beyond the tag
// width or an index beyond the index bits surfaces as an error here instead
// of a silently corrupted tag.
func (b *ProgramBuilder) Add(loop, idx int) error {
	if !b.wOpen {
		return fmt.Errorf("core: Add before StartW")
	}
	if loop < 0 || loop >= b.prog.NumLoops {
		return fmt.Errorf("core: loop %d out of range [0,%d)", loop, b.prog.NumLoops)
	}
	v, err := kernels.PackIterChecked(loop, idx)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if loop != b.segLast {
		b.closeSeg()
		b.segLast = loop
		b.prog.SegLoop = append(b.prog.SegLoop, uint8(loop))
		b.prog.SegIter = append(b.prog.SegIter, b.seen[loop])
	}
	b.prog.Iters = append(b.prog.Iters, v)
	b.seen[loop]++
	return nil
}

func (b *ProgramBuilder) closeSeg() {
	if b.segLast >= 0 {
		b.prog.SegOff = append(b.prog.SegOff, int32(len(b.prog.Iters)))
		b.segLast = -1
	}
}

func (b *ProgramBuilder) closeW() {
	if !b.wOpen {
		return
	}
	b.closeSeg()
	b.prog.WOff = append(b.prog.WOff, int32(len(b.prog.Iters)))
	b.prog.WSeg = append(b.prog.WSeg, int32(len(b.prog.SegLoop)))
	b.wOpen = false
}

// Finish seals the stream and returns the Program.
func (b *ProgramBuilder) Finish() *Program {
	b.closeW()
	p := b.prog
	p.SOff = make([]int32, len(b.sCounts)+1)
	for s, c := range b.sCounts {
		p.SOff[s+1] = p.SOff[s] + c
		if int(c) > p.MaxWidth {
			p.MaxWidth = int(c)
		}
	}
	b.prog = nil
	return p
}

// CompileSchedule flattens an ICO schedule for a chain of numLoops kernels
// into a Program. It fails only when the schedule's shape exceeds the packed
// representation (too many loops, or a trip count beyond the index bits), a
// schedule too large to fit in memory; the facade refuses to open one.
func CompileSchedule(s *Schedule, numLoops int) (*Program, error) {
	b, err := NewProgramBuilder(numLoops)
	if err != nil {
		return nil, err
	}
	for _, sp := range s.S {
		b.StartS()
		for _, w := range sp {
			if err := b.StartW(); err != nil {
				return nil, err
			}
			for _, it := range w {
				if err := b.Add(it.Loop, it.Idx); err != nil {
					return nil, err
				}
			}
		}
	}
	p := b.Finish()
	p.Interleaved, p.ReuseRatio = s.Interleaved, s.ReuseRatio
	return p, nil
}

// Decompile expands the program back into the schedule it was compiled from,
// byte for byte: the tree form for the callers that need one (a saved file,
// the tests' one-thread walk), which a program's holder need not keep.
func (p *Program) Decompile() *Schedule {
	s := &Schedule{Interleaved: p.Interleaved, ReuseRatio: p.ReuseRatio}
	for si := 0; si < p.NumSPartitions(); si++ {
		var sp [][]Iter
		for w := p.SOff[si]; w < p.SOff[si+1]; w++ {
			iters := make([]Iter, 0, p.WOff[w+1]-p.WOff[w])
			for _, v := range p.Iters[p.WOff[w]:p.WOff[w+1]] {
				loop, idx := kernels.UnpackIter(v)
				iters = append(iters, Iter{loop, idx})
			}
			sp = append(sp, iters)
		}
		s.S = append(s.S, sp)
	}
	return s
}
