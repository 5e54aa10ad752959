package atomicf

import (
	"sync"
	"testing"
)

func TestAddConcurrent(t *testing.T) {
	var x float64
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Add(&x, 1)
			}
		}()
	}
	wg.Wait()
	if x != workers*per {
		t.Fatalf("x = %v, want %d (lost updates)", x, workers*per)
	}
}

func TestAddNegativeAndFractional(t *testing.T) {
	var x float64 = 10
	Add(&x, -2.5)
	if x != 7.5 {
		t.Fatalf("x = %v", x)
	}
}
