// Command perfbench measures the repository end to end, the way its users
// pay for it, and layer by layer.
//
//	bash perfbench/run.sh --workload catalog --seed 1 --seconds 15 --trace 0
//
// Every operation starts from design files (an ICL network with its
// embedded security specification and the .bench circuit behind its
// instrument links) generated from --seed, and runs the whole
// secure-data-flow pipeline on them, with one engine worker so figures
// do not depend on how many CPUs are idle:
//
//   - catalog:  rsnsec -icl on small Table I networks (BasicSCB, Mingle,
//     TreeFlat, MBIST_1_5_5) with attached random circuits: SAT-heavy
//     one-cycle dependencies and hybrid resolution.
//   - flexscan: rsnsec -icl on scaled FlexScan, the serial-bypass network
//     with one module per register: pure-path resolution over many
//     modules.
//   - scale:    rsnsec -icl on rsngen SIB hierarchies of 1000 scan
//     flip-flops with a circuit attached to every module: ICL parsing,
//     the dependency closure and resolution at size.
//   - served:   sessions against an in-process rsnserved over loopback
//     HTTP: a fresh submission (store miss), the same submission again
//     (store hit, byte-identical report) and an incremental edit-script
//     delta on the finished analysis.
//
// The benchmark is a closed loop with one client: the next operation
// starts when the previous one returns. It cycles through a fixed pool of
// designs in passes until --seconds have elapsed, finishing the pass it is
// in, so each design runs equally often. Outputs are checked: repeated
// passes must reproduce each design's verdict exactly, secured networks
// must pass the repository's independent verifier, and served reports
// must agree with the offline pipeline on the same design.
//
// End-to-end times are CPU time of the whole process (the daemon's
// included), not wall time: on a shared host the hypervisor steals
// virtual-CPU time in bursts that can double wall-clock latency for
// minutes, and the kernel leaves stolen time out of CPU time. Times are
// also scaled to a reference machine speed (see refKernel), which
// cancels the drift in the speed a process gets while it runs. Wall
// latency goes to standard error.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end figures (median and 90th
// percentile CPU time per operation, operations per CPU second,
// allocation per operation, set-up CPU time); with --trace 1 the run
// records the program's spans and counters and reports per-layer self
// time (wall, scaled) and work per operation instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// engineWorkers is the analysis engine's worker count in every workload.
const engineWorkers = 1

// setupRepeats is how often a run builds its workload; set-up time is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: catalog, flexscan, scale or served")
	seed := flag.Int64("seed", 1, "seed of the generated designs")
	seconds := flag.Int("seconds", 15, "measured time in seconds (the last pass is finished)")
	trace := flag.Int("trace", 0, "1 records pipeline spans and reports per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	setup, ok := workloads[name]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", name)
	case seconds < 1:
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	var p probe
	if trace == 1 {
		p = newProbe()
	}

	ref := newRefKernel()

	// Set up several times and keep the last; set-up time is the median,
	// each scaled by the reference kernel timed right before it.
	var (
		r      runner
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if r != nil {
			if err := r.close(); err != nil {
				return err
			}
		}
		refs := make([]float64, 16)
		for i := range refs {
			refs[i] = ref.time()
		}
		c0 := cpuTime()
		var err error
		if r, err = setup(seed, p); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuTime()-c0).Seconds()*speed(refs))
	}
	defer r.close()

	// Warm up: one operation outside the measurement, so lazy
	// initialization and heap growth are not timed.
	if err := r.op(0, -1); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if trace == 1 {
		p.start()
	}

	// Measure whole passes over the pool. Every operation is timed on the
	// wall clock and on the process's CPU clock and followed by one run of
	// the reference kernel; both times are scaled by the speed the kernel
	// measured over the operation's pass.
	var (
		wall, cpu []float64 // per operation, scaled
		rawWall   float64   // summed, unscaled
		failed    int
		firstErr  error
		ms0, ms1  runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	for pass := 0; time.Now().Before(deadline); pass++ {
		n := r.size()
		w, c, refs := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			t0, c0 := time.Now(), cpuTime()
			err := r.op(i, pass)
			w[i], c[i] = ms(time.Since(t0)), ms(cpuTime()-c0)
			refs[i] = ref.time()
			if err != nil {
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		f := speed(refs)
		for i := 0; i < n; i++ {
			rawWall += w[i]
			wall = append(wall, w[i]*f)
			cpu = append(cpu, c[i]*f)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	correct := failed == 0
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", firstErr)
	}
	if err := r.check(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		correct = false
	}
	if err := r.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: shutdown:", err)
		correct = false
	}

	ops := len(wall)
	wallSum := sum(wall)
	res := result{Correct: correct, Attempted: ops, Failed: failed}
	if trace == 1 {
		res.Metrics = p.perOp(ops, wallSum/rawWall, wallSum/float64(ops))
	} else {
		res.Metrics = map[string]metric{
			"cpu_ms":          {quantile(cpu, 0.5), "ms"},
			"cpu_p90_ms":      {quantile(cpu, 0.9), "ms"},
			"ops_per_cpu_s":   {float64(ops) / sum(cpu) * 1e3, "1/s"},
			"alloc_mb_per_op": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops) / (1 << 20), "MB"},
			"setup_s":         {quantile(setups, 0.5), "s"},
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d designs, %d operations in %.2fs, %d failed, correct=%v; "+
		"wall latency median %.3f ms, p90 %.3f ms (scaled by speed factor %.3f)\n",
		name, seed, r.size(), ops, elapsed.Seconds(), failed, correct,
		quantile(wall, 0.5), quantile(wall, 0.9), wallSum/rawWall)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
	return nil
}

// cpuTime returns the CPU time the process has used so far, over all its
// threads. The kernel leaves out time the hypervisor stole from the
// virtual CPUs, which wall-clock time cannot.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
