package main

import (
	"math/rand"
	"sort"
	"time"
)

// refNominalMS is the reference kernel's median time on an uncontended
// 2-vCPU Intel Xeon VM. Times scaled by refNominalMS over the kernel's
// measured time read as milliseconds at that machine's speed.
const refNominalMS = 0.16

// refKernel is a fixed piece of work that stands in for the machine's
// speed: hashing into a map of slices, appending and sorting. On a
// shared host the speed a process gets drifts by up to 2x over minutes;
// timed next to every operation, the kernel slows down with the program,
// so scaling a time by refNominalMS over the kernel's time cancels most
// of the drift (in a 7-minute catalog run whose per-pass latency swung
// 1.6x, the scaled latency stayed within 1.12x). Of the kernels tried,
// pure arithmetic tracked too little of the drift and pointer chasing
// over fresh allocations too much. The kernel belongs to the benchmark,
// so no change to the program moves it.
// It reuses its map and slices and allocates nothing once warm, so it
// neither adds to the allocation figures nor triggers garbage collection.
type refKernel struct {
	rng     *rand.Rand
	buckets map[int][]int
	flat    []int
}

func newRefKernel() *refKernel {
	k := &refKernel{rng: rand.New(rand.NewSource(1)), buckets: map[int][]int{}}
	k.time() // grow the map and slices to their final size
	return k
}

// time runs the kernel once and returns its duration in milliseconds.
func (k *refKernel) time() float64 {
	t0 := time.Now()
	k.rng.Seed(1)
	for key, b := range k.buckets {
		k.buckets[key] = b[:0]
	}
	for i := 0; i < 1500; i++ {
		key := k.rng.Intn(400)
		k.buckets[key] = append(k.buckets[key], i)
	}
	k.flat = k.flat[:0]
	for key := 0; key < 400; key++ {
		k.flat = append(k.flat, k.buckets[key]...)
	}
	sort.Ints(k.flat)
	return ms(time.Since(t0))
}

// speed returns the factor that scales times measured alongside the
// given kernel times to the reference machine's speed.
func speed(refs []float64) float64 {
	return refNominalMS / quantile(refs, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
