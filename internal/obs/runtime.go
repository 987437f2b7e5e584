package obs

import (
	"math"
	"runtime/metrics"
)

// runtimeSamples maps runtime/metrics sample names to the exported
// gauge names. Values are sampled by a registry collector at scrape
// time — runtime/metrics reads are cheap and stop-the-world free, so
// scrapes stay O(µs) regardless of heap size.
var runtimeSamples = []struct {
	sample string
	gauge  string
	help   string
}{
	{"/sched/goroutines:goroutines", "go_goroutines",
		"Live goroutines."},
	{"/memory/classes/heap/objects:bytes", "go_heap_live_bytes",
		"Bytes of live heap objects (allocated and not yet collected)."},
	{"/memory/classes/total:bytes", "go_mem_total_bytes",
		"Total memory mapped by the Go runtime."},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total",
		"Completed GC cycles since process start."},
	{"/cpu/classes/gc/pause:cpu-seconds", "go_gc_pause_cpu_ms_total",
		"Cumulative CPU-milliseconds spent in GC stop-the-world pauses."},
}

// cpuSamples feed go_cpu_seconds_total: the runtime's estimate of all
// CPU time available to the process minus the idle share — i.e. the
// CPU the process actually spent working (user code, GC, scavenger).
// Kept apart from runtimeSamples because two samples combine into one
// exported value, and that value is a float (whole seconds would
// truncate a short run's CPU time to zero).
var cpuSamples = struct{ total, idle string }{
	total: "/cpu/classes/total:cpu-seconds",
	idle:  "/cpu/classes/idle:cpu-seconds",
}

// EnableRuntimeMetrics registers Go runtime health gauges
// (go_goroutines, go_heap_live_bytes, go_mem_total_bytes,
// go_gc_cycles_total, go_gc_pause_cpu_ms_total, go_cpu_seconds_total)
// in the registry, refreshed via runtime/metrics on every exposition.
// Unknown sample names (older runtimes) are skipped silently, so the
// set degrades instead of breaking across Go versions.
func EnableRuntimeMetrics(r *Registry) {
	if r == nil {
		return
	}
	samples := make([]metrics.Sample, len(runtimeSamples))
	gauges := make([]*Gauge, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.sample
		r.SetHelp(rs.gauge, rs.help)
		gauges[i] = r.Gauge(rs.gauge)
	}
	r.SetHelp("go_cpu_seconds_total",
		"Cumulative CPU seconds the process spent working (total minus idle, "+
			"per runtime/metrics; the estimate refreshes on GC, so it lags on quiet processes).")
	cpuG := r.FloatGauge("go_cpu_seconds_total")
	cpu := []metrics.Sample{{Name: cpuSamples.total}, {Name: cpuSamples.idle}}
	r.AddCollector(func() {
		metrics.Read(samples)
		for i := range samples {
			switch samples[i].Value.Kind() {
			case metrics.KindUint64:
				v := samples[i].Value.Uint64()
				if v > math.MaxInt64 {
					v = math.MaxInt64
				}
				gauges[i].Set(int64(v))
			case metrics.KindFloat64:
				// Float samples here are cumulative seconds; export as
				// integer milliseconds (the registry is int64-valued).
				gauges[i].Set(int64(samples[i].Value.Float64() * 1e3))
			}
		}
		metrics.Read(cpu)
		if cpu[0].Value.Kind() == metrics.KindFloat64 && cpu[1].Value.Kind() == metrics.KindFloat64 {
			if busy := cpu[0].Value.Float64() - cpu[1].Value.Float64(); busy >= 0 {
				cpuG.Set(busy)
			}
		}
	})
}
