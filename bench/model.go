package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sparsefusion/internal/core"
	"sparsefusion/internal/kernels"
)

// shape is the machine-independent quality of a fused schedule: how wide it
// is and how much of its work lies on the critical path. Costs are the DAG
// vertex weights the inspector balances with (nonzeros touched per iteration).
type shape struct {
	SPartitions int
	Iterations  int
	// MeanWidth is the w-partition count per s-partition, weighted by the
	// iterations of the s-partition, so a wide sliver does not hide a serial
	// bulk.
	MeanWidth float64
	// Work is the total cost; Span is the sum over s-partitions of the
	// costliest w-partition, the least any number of workers can take.
	Work, Span int64
}

// ModelSpeedup is work over span: the speed-up over one worker that the
// schedule allows when barriers are free.
func (s shape) ModelSpeedup() float64 {
	if s.Span == 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Span)
}

func scheduleShape(parts []core.SPartitionStats) shape {
	sh := shape{SPartitions: len(parts)}
	weighted := 0.0
	for _, p := range parts {
		sh.Iterations += p.Iters
		weighted += float64(p.Widths) * float64(p.Iters)
		top := 0
		for _, c := range p.Costs {
			sh.Work += int64(c)
			top = max(top, c)
		}
		sh.Span += int64(top)
	}
	if sh.Iterations > 0 {
		sh.MeanWidth = weighted / float64(sh.Iterations)
	}
	return sh
}

// modelRunMS predicts the run time of a schedule: the span priced at what one
// cost unit takes sequentially, plus the barriers.
func modelRunMS(sh shape, seqRunMS float64, barriers int, nsPerBarrier float64) float64 {
	if sh.Work == 0 {
		return 0
	}
	return float64(sh.Span)*seqRunMS/float64(sh.Work) + float64(barriers)*nsPerBarrier/1e6
}

// vectorBytes is the dense-vector traffic of one pass over the kernels,
// computed from array sizes: every footprint entry no longer than n is a
// vector and is counted once per kernel that touches it.
func vectorBytes(ks []kernels.Kernel, n int) int64 {
	var words int64
	for _, k := range ks {
		for _, v := range k.Footprint() {
			if v.Size <= n {
				words += int64(v.Size)
			}
		}
	}
	return 8 * words
}

// triadGBs measures a STREAM triad a[i] = b[i] + s*c[i] over three arrays
// totalling about bytes, split across threads goroutines, and returns the best
// of five passes in GB/s counting the three streams (no write-allocate).
func triadGBs(bytes int64, threads int) float64 {
	n := max(int(bytes/24), 1024)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	pass := func() time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for t := 0; t < threads; t++ {
			lo, hi := t*n/threads, (t+1)*n/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	pass() // touch every page first
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		best = min(best, pass())
	}
	runtime.KeepAlive(a)
	return float64(24*n) / float64(best.Nanoseconds())
}

// cacheBytes reads the size of the level-l unified or data cache of cpu0 from
// sysfs; 0 when the machine does not say.
func cacheBytes(level int) int64 {
	for idx := 0; idx < 8; idx++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(idx) + "/"
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		ty, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) || strings.TrimSpace(string(ty)) == "Instruction" {
			continue
		}
		sz, _ := os.ReadFile(dir + "size")
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0
		}
		return v * mult
	}
	return 0
}
