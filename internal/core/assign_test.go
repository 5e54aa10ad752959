package core

import (
	"reflect"
	"testing"
)

// buildAssignProg compiles a program whose s-partitions have the given
// w-partition iteration counts, e.g. {{3, 1, 2}, {5}} is two s-partitions,
// the first with three w-partitions of 3, 1, and 2 iterations.
func buildAssignProg(t *testing.T, shape [][]int) *Program {
	t.Helper()
	b, err := NewProgramBuilder(1)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	for _, sp := range shape {
		b.StartS()
		for _, n := range sp {
			if err := b.StartW(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < n; k++ {
				if err := b.Add(0, idx); err != nil {
					t.Fatal(err)
				}
				idx++
			}
		}
	}
	return b.Finish()
}

func TestAssignProgramCoversEveryWPartitionOnce(t *testing.T) {
	p := buildAssignProg(t, [][]int{{3, 1, 2, 2, 5}, {1}, {4, 4, 4}})
	for _, workers := range []int{1, 2, 3, 4, 8, 16} {
		a := AssignProgram(p, workers, nil)
		if a.Workers != workers {
			t.Fatalf("workers=%d: got Workers=%d", workers, a.Workers)
		}
		if len(a.Off) != p.NumSPartitions()*workers+1 {
			t.Fatalf("workers=%d: len(Off)=%d want %d", workers, len(a.Off), p.NumSPartitions()*workers+1)
		}
		seen := make([]int, p.NumWPartitions())
		for s := 0; s < p.NumSPartitions(); s++ {
			for q := 0; q < workers; q++ {
				for _, w := range a.Queue(s, q) {
					seen[w]++
					if w < p.SOff[s] || w >= p.SOff[s+1] {
						t.Fatalf("workers=%d: w-partition %d in queue of s-partition %d, belongs to another", workers, w, s)
					}
				}
			}
		}
		for w, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: w-partition %d assigned %d times", workers, w, n)
			}
		}
	}
}

func TestAssignProgramQueuesHeaviestFirst(t *testing.T) {
	p := buildAssignProg(t, [][]int{{1, 5, 2, 4, 3, 6}})
	a := AssignProgram(p, 2, nil)
	for q := 0; q < 2; q++ {
		ids := a.Queue(0, q)
		for i := 1; i < len(ids); i++ {
			prev := p.WOff[ids[i-1]+1] - p.WOff[ids[i-1]]
			cur := p.WOff[ids[i]+1] - p.WOff[ids[i]]
			if cur > prev {
				t.Fatalf("slot %d queue not heaviest-first: %v", q, ids)
			}
		}
	}
}

func TestAssignProgramNarrowSPartitionLeavesTrailingSlotsEmpty(t *testing.T) {
	p := buildAssignProg(t, [][]int{{2, 2}, {7}})
	a := AssignProgram(p, 4, nil)
	for s, width := range []int{2, 1} {
		for q := 0; q < 4; q++ {
			n := len(a.Queue(s, q))
			if q < width && n != 1 {
				t.Fatalf("s=%d slot %d: got %d w-partitions, want 1", s, q, n)
			}
			if q >= width && n != 0 {
				t.Fatalf("s=%d slot %d beyond width %d: got %d w-partitions, want 0", s, q, width, n)
			}
		}
	}
}

func TestAssignProgramDeterministic(t *testing.T) {
	p := buildAssignProg(t, [][]int{{3, 3, 3, 3}, {2, 2, 5, 1, 1}})
	a := AssignProgram(p, 3, nil)
	for i := 0; i < 5; i++ {
		b := AssignProgram(p, 3, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("assignment not deterministic:\n%+v\n%+v", a, b)
		}
	}
}

func TestAssignProgramWeightOverride(t *testing.T) {
	// Iteration counts say w0 is heaviest; the override inverts that, so LPT
	// must schedule by the override, putting w2 alone on the least-loaded path.
	p := buildAssignProg(t, [][]int{{9, 2, 1}})
	inv := func(w int) int64 { return int64(10 - (p.WOff[w+1] - p.WOff[w])) }
	a := AssignProgram(p, 2, inv)
	// Override weights: w0=1, w1=8, w2=9. LPT: slot0 gets w2(9), slot1 gets
	// w1(8) then w0(1) lands on slot1? loads: slot0=9, slot1=8 → w0 on slot1.
	if got := a.Queue(0, 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("slot 0 queue = %v, want [2]", got)
	}
	if got := a.Queue(0, 1); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("slot 1 queue = %v, want [1 0]", got)
	}
}

func TestAssignProgramClampWorkers(t *testing.T) {
	p := buildAssignProg(t, [][]int{{1, 1}})
	a := AssignProgram(p, 0, nil)
	if a.Workers != 1 {
		t.Fatalf("Workers=%d, want clamp to 1", a.Workers)
	}
	if got := a.Queue(0, 0); len(got) != 2 {
		t.Fatalf("single-slot queue = %v, want both w-partitions", got)
	}
}
