package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec is one metric the benchmark reports. For a per-layer metric,
// moves names the end-to-end metric and workload it should move.
type metricSpec struct {
	name, unit, better string
	moves              string
}

// endToEnd lists the end-to-end metrics, reported with -trace 0 by every
// workload. job_makespan_s is the burst of jobs each workload submits:
// inside the window on cluster-burst, after it on the single-node
// workloads.
var endToEnd = []metricSpec{
	{name: "throughput_rps", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "job_makespan_s", unit: "s", better: "lower"},
}

// perLayer lists the per-layer metrics, reported with -trace 1 by every
// workload (a layer a workload does not exercise reads 0).
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better, moves string) {
		out = append(out, metricSpec{name: name, unit: unit, better: better, moves: moves})
	}
	for _, t := range engineTypes {
		add("engine.decode."+t+".us", "us", "lower", "hot-hits throughput_rps and latency_p99_ms; no change on cluster-burst")
		add("engine.decode."+t+".allocs", "count", "lower", "hot-hits throughput_rps and latency_p99_ms; no change on cluster-burst")
	}
	add("engine.key.us", "us", "lower", "hot-hits throughput_rps")
	for _, t := range engineTypes {
		add("engine.run."+t+".us_per_unit", "us", "lower", "cluster-burst throughput_rps and latency_p50_ms")
		add("engine.run."+t+".allocs_per_unit", "count", "lower", "cluster-burst throughput_rps and latency_p50_ms")
	}
	for _, t := range engineTypes {
		add("engine.marshal."+t+".us", "us", "lower", "cluster-burst throughput_rps")
		add("engine.marshal."+t+".bytes", "bytes", "lower", "cluster-burst throughput_rps")
	}
	for _, t := range engineTypes {
		add("server.handler."+t+".us", "us", "lower", "hot-hits latency_p50_ms")
	}
	add("server.handler.runtime.decode_share", "ratio", "lower", "hot-hits latency_p50_ms")
	add("server.cache.hit_ratio", "ratio", "higher", "store-spill throughput_rps")
	add("server.cache.store_hit_ratio", "ratio", "lower", "store-spill throughput_rps")
	add("server.cache.evictions_per_op", "count", "lower", "store-spill throughput_rps")
	add("server.cpu_ms_per_op", "ms", "lower", "throughput_rps on every workload")
	add("http.transport_us", "us", "lower", "hot-hits latency_p50_ms")
	add("jobs.store.put.us", "us", "lower", "cluster-burst latency_p99_ms")
	add("jobs.store.get.us", "us", "lower", "store-spill latency_p50_ms")
	add("jobs.store.open.ms", "ms", "lower", "store-spill setup_s")
	add("jobs.store.range.ms", "ms", "lower", "store-spill setup_s")
	add("jobs.queue_wait_ms", "ms", "lower", "cluster-burst job_makespan_s")
	add("jobs.run_ms", "ms", "lower", "cluster-burst job_makespan_s")
	add("cluster.forwarded_share", "ratio", "lower", "cluster-burst latency_p50_ms")
	add("cluster.forward_extra_ms", "ms", "lower", "cluster-burst latency_p50_ms")
	add("cluster.replicas_per_miss", "count", "lower", "cluster-burst job_makespan_s")
	add("cluster.steals", "count", "lower", "cluster-burst job_makespan_s")
	add("generator.cpu_ms_per_op", "ms", "lower", "throughput_rps on every workload (the client's share of the cores)")
	add("trace.overhead_ratio", "ratio", "lower", "none: the traced over the untraced time per request")
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}
