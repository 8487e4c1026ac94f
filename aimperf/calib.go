package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"
)

// refSpeed is the calibration kernel speed, in rounds per second per
// goroutine, that the reported timings are scaled to: about the median
// the kernel reaches on a shared 2-vCPU x86-64 virtual machine.
const refSpeed = 2300.0

// kernelState is one calibration goroutine's working set, allocated
// once so that calibrating neither allocates nor triggers a GC cycle
// that the workload's runtime counters would absorb.
type kernelState struct {
	buf  []byte
	keys []int
	work []int
	m    map[int]int
}

var kernels = func() []*kernelState {
	ks := make([]*kernelState, runtime.GOMAXPROCS(0))
	for i := range ks {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		k := &kernelState{buf: make([]byte, 16<<10), keys: make([]int, 4096), work: make([]int, 4096), m: make(map[int]int, 1024)}
		rng.Read(k.buf)
		for j := range k.keys {
			k.keys[j] = rng.Int()
		}
		ks[i] = k
	}
	return ks
}()

// round is one unit of kernel work: hashing, a sort, map updates.
func (k *kernelState) round() {
	sha256.Sum256(k.buf)
	copy(k.work, k.keys)
	slices.Sort(k.work)
	clear(k.m)
	for i, key := range k.work {
		k.m[key&1023] += i
	}
}

// calibrate runs the kernel on n goroutines (at most one per CPU the
// process may use) for about d, while no other benchmark work runs, and
// returns the rounds completed per second per goroutine. Callers pass
// the workload's client count, so the kernel loads the machine about as
// wide as the workload does.
func calibrate(d time.Duration, n int) float64 {
	n = max(1, min(n, len(kernels)))
	var wg sync.WaitGroup
	rounds := make([]int, n)
	t0 := time.Now()
	for i, k := range kernels[:n] {
		wg.Add(1)
		go func(i int, k *kernelState) {
			defer wg.Done()
			for time.Since(t0) < d {
				k.round()
				rounds[i]++
			}
		}(i, k)
	}
	wg.Wait()
	total := 0
	for _, n := range rounds {
		total += n
	}
	return float64(total) / float64(n) / time.Since(t0).Seconds()
}
