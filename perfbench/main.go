// Command perfbench is the repository benchmark. It starts real ulba-serve
// processes, drives them over loopback TCP from this one process with a
// closed loop of two clients, checks every reply byte for byte against the
// in-process engine result, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of a traced run — as the last line of
// its output, one JSON object.
//
//	bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 30 --trace 0
//
// run.sh builds ulba-serve and this command from the checkout first; see
// README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"ulba/internal/engine"
	"ulba/internal/jobs"
)

// setups is how many times a run sets its servers up; setup_s is the
// median.
const setups = 5

// traceSlice alternates traced and untraced stretches of a traced window.
const traceSlice = 500 * time.Millisecond

// figureSlice is the length of the slices the end-to-end figures are taken
// over; see syncFigures.
const figureSlice = time.Second

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v, or all", workloadNames))
	seed := fs.Uint64("seed", 1, "seed the request bodies are generated from")
	seconds := fs.Int("seconds", 30, "length of the measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	serveBin := fs.String("serve", "", "path of the ulba-serve binary to run")
	work := fs.String("work", ".bench_build", "directory for stores, server logs and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var plans []*plan
	for _, name := range names {
		p, err := newPlan(name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		plans = append(plans, p)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *serveBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 1, -trace 0|1 and -serve")
		return 2
	}
	// The generator is one process on at most two OS threads (one while
	// servers run; see runner.run). Its live heap is small, so a lazier
	// collector keeps its share of the cores, and the noise it adds, down.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(400)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, p := range plans {
		r := &runner{
			plan: p, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1,
			traceDir: filepath.Join(*work, "traces"), serveBin: *serveBin, hc: newHTTPClient(),
		}
		if c := r.runOnce(ctx, *work); c > code {
			code = c
		}
	}
	return code
}

// runOnce runs one workload in a scratch directory of its own, prints its
// result line and returns the exit code.
func (r *runner) runOnce(ctx context.Context, work string) int {
	dir, err := filepath.Abs(filepath.Join(work, "runs", fmt.Sprintf("%s-seed%d-pid%d", r.plan.name, r.seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.dir = dir
	res, err := r.run(ctx)
	// Clean up before printing: a closed output must not leave the run's
	// stores behind.
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runner struct {
	plan     *plan
	seed     uint64
	dur      time.Duration
	traced   bool
	serveBin string
	dir      string
	traceDir string
	hc       *http.Client
	tracer   *tracer // the traced window's spans, with -trace 1
}

// measured is everything one run observed, before it becomes metrics.
type measured struct {
	setup         []float64 // seconds per setup
	win           window
	ids           []string // node IDs
	before, after totals   // counters around the window
	afterJobs     totals   // counters once every job burst was terminal
	serverCPU     time.Duration
	generatorCPU  time.Duration
	peakRSSKB     float64
	stealShare    float64  // share of the machine's CPU time the hypervisor took during the window
	bursts        [][]*job // the job bursts, each in submission order
	violations    []string
	storeDir      string // the store node 0 ran on ("" without one)
}

func (m *measured) allJobs() []*job {
	var out []*job
	for _, burst := range m.bursts {
		out = append(out, burst...)
	}
	return out
}

func (r *runner) run(ctx context.Context) (*result, error) {
	p := r.plan
	refs := map[string][]byte{}
	// Before any server starts: the references of the fixed bodies and,
	// for store-spill, the store the server will be restarted on.
	if p.fixed != nil {
		rendered, err := references(ctx, p.fixed)
		if err != nil {
			return nil, err
		}
		for k, b := range p.fixed {
			refs[string(b.raw)] = rendered[k]
		}
	}
	spillRoot := ""
	if p.fill != nil {
		spillRoot = filepath.Join(r.dir, "spill")
		if err := fillStore(filepath.Join(spillRoot, "store0"), p.fill, refs); err != nil {
			return nil, err
		}
	}

	// While servers run, the generator takes one core's worth of threads:
	// the two clients need far less than a core, and a second generator
	// thread on a 2-core box only adds scheduling noise to the servers.
	// The reference checks after the window use both cores again.
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(2)

	var m measured
	n := setups
	if r.traced {
		n = 1 // set-up time is an end-to-end metric; the traced run sets up once
	}
	var cl cluster
	defer func() { cl.stop() }()
	for k := range n {
		root := spillRoot
		if root == "" {
			root = filepath.Join(r.dir, fmt.Sprintf("setup%d", k))
		}
		t0 := time.Now()
		var err error
		if cl, err = startServers(ctx, r.serveBin, root, p, r.hc); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, r.hc, cl, p, refs); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		if p.store {
			m.storeDir = filepath.Join(root, "store0")
		}
		if k < n-1 {
			err := cl.stop()
			cl = nil
			if err != nil {
				return nil, err
			}
		}
	}
	for _, s := range cl {
		m.ids = append(m.ids, s.id)
	}

	if err := r.measure(ctx, cl, refs, &m); err != nil {
		return nil, err
	}
	stopErr := cl.stop()
	cl = nil
	runtime.GOMAXPROCS(2)
	if stopErr != nil {
		m.violations = append(m.violations, stopErr.Error())
	}
	if err := checkDeferred(ctx, p, m.win.samples); err != nil {
		return nil, err
	}
	if err := checkJobs(ctx, m.allJobs()); err != nil {
		return nil, err
	}

	o := tally(m.ids, m.win.samples)
	m.violations = append(m.violations, assertMix(p, o, m.afterJobs.sub(m.before), len(m.allJobs()))...)
	if o.attempted < 1000 && r.dur >= 10*time.Second {
		m.violations = append(m.violations, fmt.Sprintf("%s: %d samples in the window, want at least 1000", p.name, o.attempted))
	}
	res := &result{Attempted: o.attempted + len(m.allJobs()), Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, j := range m.allJobs() {
		if j.err != nil || j.verdict < 0 {
			res.Failed++
			if j.err == nil {
				j.err = errors.New("result differs from the in-process reference")
			}
			m.violations = append(m.violations, fmt.Sprintf("job %s (%s): %v", j.id, j.b.typ, j.err))
		}
	}
	if o.failed > 0 {
		m.violations = append(m.violations, fmt.Sprintf("%d of %d requests failed: %d transport errors, %d non-2xx, %d 429s, %d bodies differing from the in-process reference",
			o.failed, o.attempted, o.transport, o.non2xx, o.shed429, o.mismatch))
	}

	if r.traced {
		if err := r.layers(ctx, &m, o, res); err != nil {
			return nil, err
		}
	} else {
		r.endToEnd(&m, o, res)
	}
	for _, v := range m.violations {
		fmt.Println("VIOLATION:", v)
	}
	res.Correct = len(m.violations) == 0 && res.Failed == 0
	return res, nil
}

// fillStore writes the bodies' references into a fresh store, keyed by
// their content address, as a server would have persisted them.
func fillStore(dir string, bodies []body, refs map[string][]byte) error {
	st, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	for _, b := range bodies {
		d, _ := engine.ByType(b.typ)
		inst, err := d.Decode(b.raw)
		if err != nil {
			return err
		}
		key, err := inst.Key()
		if err != nil {
			return err
		}
		if err := st.Put(key, refs[string(b.raw)]); err != nil {
			return err
		}
	}
	return st.Close()
}

// warmUp sends the plan's warm-up bodies, round-robin across the nodes, and
// requires each reply to be a 200 (matching its reference when known).
func warmUp(ctx context.Context, hc *http.Client, cl cluster, p *plan, refs map[string][]byte) error {
	for k, b := range p.warm {
		status, _, raw, err := post(ctx, hc, cl[k%len(cl)].url+endpoint(b.typ), b.raw)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", b.typ, status, raw)
		}
		if ref, ok := refs[string(b.raw)]; ok && string(ref) != string(raw) {
			return fmt.Errorf("warm-up %s: body differs from the in-process reference", b.typ)
		}
	}
	return nil
}

// measure runs the window, waits for its job bursts to end, and reads the
// servers' counters, CPU and peak memory around them.
func (r *runner) measure(ctx context.Context, cl cluster, refs map[string][]byte, m *measured) error {
	p := r.plan
	var err error
	var metricsBefore, metricsAfter []byte
	if m.before, err = cl.totals(ctx, r.hc); err != nil {
		return err
	}
	if p.nodes == 1 {
		if metricsBefore, err = get(ctx, r.hc, cl[0].url+"/metrics"); err != nil {
			return err
		}
	}
	cpu0, err := cl.cpu()
	if err != nil {
		return err
	}
	gen0 := selfCPU()
	total0, steal0 := cpuTicks()
	cfg := loopConfig{plan: p, cl: cl, hc: r.hc, dur: r.dur, refs: refs}
	if r.traced {
		cfg.tr, cfg.slice = newTracer(), traceSlice
	}
	m.win = closedLoop(ctx, cfg)
	m.generatorCPU = selfCPU() - gen0
	if total1, steal1 := cpuTicks(); total1 > total0 {
		m.stealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	cpu1, err := cl.cpu()
	if err != nil {
		return err
	}
	m.serverCPU = cpu1 - cpu0
	if m.after, err = cl.totals(ctx, r.hc); err != nil {
		return err
	}
	if p.nodes == 1 {
		if metricsAfter, err = get(ctx, r.hc, cl[0].url+"/metrics"); err != nil {
			return err
		}
		o := tally([]string{cl[0].id}, m.win.samples)
		m.violations = append(m.violations, assertHistograms(metricsBefore, metricsAfter, o)...)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	m.bursts = m.win.bursts
	for _, burst := range m.bursts {
		if err := awaitJobs(ctx, r.hc, cl[0], burst); err != nil {
			return err
		}
	}
	if m.afterJobs, err = cl.totals(ctx, r.hc); err != nil {
		return err
	}
	for _, s := range cl {
		kb, err := procStatusKB(s.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return err
		}
		m.peakRSSKB = max(m.peakRSSKB, kb)
	}
	r.tracer = cfg.tr
	return nil
}

// endToEnd fills the -trace 0 metrics and prints them as a table with
// their sample and failure counts.
func (r *runner) endToEnd(m *measured, o outcome, res *result) {
	f := syncFigures(m.win)
	jobsFailed := res.Failed - o.failed
	var makespans []float64
	for _, burst := range m.bursts {
		makespans = append(makespans, makespan(burst).Seconds())
	}
	vals := map[string]float64{
		"throughput_rps": f.rate,
		"latency_p50_ms": ms(percentile(f.lats, 0.50)),
		"latency_p99_ms": ms(percentile(f.lats, 0.99)),
		"setup_s":        median(m.setup),
		"peak_rss_mb":    m.peakRSSKB / 1024,
		"job_makespan_s": median(makespans),
	}
	fmt.Printf("perfbench %s seed %d: %d requests in %.2fs, %d failed; %d jobs, %d failed\n",
		r.plan.name, r.seed, o.attempted, m.win.elapsed.Seconds(), o.failed, len(m.allJobs()), jobsFailed)
	fmt.Printf("  requests per %v slice:", figureSlice)
	for k, n := range f.counts {
		mark := ""
		switch {
		case f.busy[k]:
			mark = "b"
		case f.used[k]:
			mark = "*"
		}
		fmt.Printf(" %d%s", n, mark)
	}
	fmt.Println("  (b: a job burst ran, *: in the figures)")
	fmt.Printf("  set-ups (s): %.4f; job bursts (s): %.4f\n", m.setup, makespans)
	fmt.Printf("  host steal during the window: %.1f%% of CPU time\n", 100*m.stealShare)
	fmt.Printf("  %-16s %14s %-6s %8s %8s\n", "metric", "value", "unit", "samples", "failed")
	for _, spec := range endToEnd {
		samples, failed := len(f.lats), o.failed
		switch spec.name {
		case "setup_s":
			samples, failed = len(m.setup), 0
		case "peak_rss_mb":
			samples, failed = len(m.ids), 0
		case "job_makespan_s":
			samples, failed = len(makespans), jobsFailed
		}
		fmt.Printf("  %-16s %14.4f %-6s %8d %8d\n", spec.name, vals[spec.name], spec.unit, samples, failed)
		res.Metrics[spec.name] = metricValue{Value: vals[spec.name], Unit: spec.unit}
	}
}

// layers fills the -trace 1 metrics: counters and timings of the traced
// window, then the in-process layer probe.
func (r *runner) layers(ctx context.Context, m *measured, o outcome, res *result) error {
	p, tr := r.plan, r.tracer
	d := m.after.sub(m.before)
	vals := map[string]float64{}
	ops := float64(max(o.attempted, 1))
	lookups := float64(max(d.hits+d.misses+d.storeHits+d.joins, 1))
	vals["server.cache.hit_ratio"] = float64(d.hits) / lookups
	vals["server.cache.store_hit_ratio"] = float64(d.storeHits) / lookups
	vals["server.cache.evictions_per_op"] = float64(d.evictions) / ops
	vals["server.cpu_ms_per_op"] = ms(m.serverCPU) / ops
	vals["generator.cpu_ms_per_op"] = ms(m.generatorCPU) / ops

	if r := overheadRatio(m.win, traceSlice); r > 0 {
		vals["trace.overhead_ratio"] = r
	}

	// Jobs: queue wait and run time from the job timestamps.
	var waits, runs []float64
	for _, j := range m.allJobs() {
		st := j.status
		if st.Started != nil && st.Finished != nil {
			waits = append(waits, ms(st.Started.Sub(st.Created)))
			runs = append(runs, ms(st.Finished.Sub(*st.Started)))
		}
	}
	vals["jobs.queue_wait_ms"], vals["jobs.run_ms"] = median(waits), median(runs)

	// Cluster: forwarded share and its extra latency, replicas and steals.
	var fwd, local []time.Duration
	for k := range m.win.samples {
		s := &m.win.samples[k]
		if !s.ok() {
			continue
		}
		if s.servedBy != m.ids[s.node] {
			fwd = append(fwd, s.lat)
		} else {
			local = append(local, s.lat)
		}
	}
	vals["cluster.forwarded_share"] = float64(len(fwd)) / ops
	if len(fwd) > 0 && len(local) > 0 {
		vals["cluster.forward_extra_ms"] = ms(percentile(fwd, 0.5) - percentile(local, 0.5))
	}
	if d.misses > 0 {
		vals["cluster.replicas_per_miss"] = float64(d.replicasSent) / float64(d.misses)
	}
	vals["cluster.steals"] = float64(m.afterJobs.sub(m.before).steals)

	// The in-process layer probe, on both cores now that the servers are
	// gone.
	lp := &layerProbe{ctx: ctx, p: p, tr: tr, dir: filepath.Join(r.dir, "probe"), values: map[string][]float64{}}
	set := probeSet(p)
	rendered, err := lp.engines(set)
	if err != nil {
		return err
	}
	handlerStore := ""
	if p.fill != nil {
		handlerStore = m.storeDir
	}
	if err := lp.handler(handlerStore); err != nil {
		return err
	}
	if err := lp.store(rendered, m.storeDir); err != nil {
		return err
	}
	for name, xs := range lp.values {
		vals[name] = median(xs)
	}
	var transport, weight float64
	for _, t := range engineTypes {
		h := medianDur(tr.durations("server.handler." + t))
		vals["server.handler."+t+".us"] = h
		var lats []time.Duration
		for k := range m.win.samples {
			if s := &m.win.samples[k]; s.ok() && s.typ == t {
				lats = append(lats, s.lat)
			}
		}
		if len(lats) > 0 && h > 0 {
			transport += (us(percentile(lats, 0.5)) - h) * float64(len(lats))
			weight += float64(len(lats))
		}
	}
	if weight > 0 {
		vals["http.transport_us"] = transport / weight
	}
	if h := vals["server.handler.runtime.us"]; h > 0 {
		vals["server.handler.runtime.decode_share"] = vals["engine.decode.runtime.us"] / h
	}

	for _, spec := range perLayer() {
		res.Metrics[spec.name] = metricValue{Value: vals[spec.name], Unit: spec.unit}
	}
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d.jsonl", p.name, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed %d (traced): %d requests, %d failed; spans in %s\n", p.name, r.seed, o.attempted, o.failed, path)
	fmt.Printf("  host steal during the window: %.1f%% of CPU time\n", 100*m.stealShare)
	tr.printSelfTimes(os.Stdout, 12)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return nil
}

// figures are the synchronous requests' end-to-end figures of a window.
type figures struct {
	counts     []int  // successful requests per slice
	busy, used []bool // per slice: a job burst ran in it; it is in the figures
	rate       float64
	lats       []time.Duration
}

// syncFigures cuts the window into slices of figureSlice by request start.
// Slices in which a job burst ran are left out, so the figures are those of
// synchronous traffic alone. Of the other slices, the faster half (by
// successful requests) gives the throughput, their requests over their
// time, and the latencies the percentiles are taken over. The shared host
// this runs on slows a CPU down by up to half for seconds at a time, while
// nothing makes the program run faster than it can: the faster half of a
// window is a steadier measure of the program than the whole window.
func syncFigures(w window) figures {
	n := max(int(w.dur/figureSlice), 1)
	f := figures{counts: make([]int, n), used: make([]bool, n)}
	at := func(d time.Duration) int { return min(max(int(d/figureSlice), 0), n-1) }
	per := make([][]time.Duration, n)
	for i := range w.samples {
		if s := &w.samples[i]; s.ok() {
			k := at(s.start)
			per[k] = append(per[k], s.lat)
			f.counts[k]++
		}
	}
	f.busy = pausedSlices(w, figureSlice, n)
	var quiet []int
	for k := range n {
		if !f.busy[k] {
			quiet = append(quiet, k)
		}
	}
	if len(quiet) == 0 { // a window too short to hold a slice without a burst
		for k := range n {
			quiet = append(quiet, k)
		}
	}
	sort.SliceStable(quiet, func(a, b int) bool { return f.counts[quiet[a]] > f.counts[quiet[b]] })
	quiet = quiet[:(len(quiet)+1)/2]
	total := 0
	for _, k := range quiet {
		f.used[k] = true
		f.lats = append(f.lats, per[k]...)
		total += f.counts[k]
	}
	f.rate = float64(total) / (time.Duration(len(quiet)) * figureSlice).Seconds()
	return f
}

// overheadRatio is the wall time per request in the traced (odd) slices of
// a traced window over that in the untraced (even) ones. Slices in which a
// job burst paused the requests count on neither side.
func overheadRatio(w window, slice time.Duration) float64 {
	n := max(int((w.elapsed+slice-1)/slice), 1)
	paused := pausedSlices(w, slice, n)
	var spent [2]time.Duration
	var count [2]int
	for k := range n {
		if !paused[k] {
			spent[k%2] += min(slice, w.elapsed-time.Duration(k)*slice)
		}
	}
	for i := range w.samples {
		if k := min(int(w.samples[i].start/slice), n-1); !paused[k] {
			count[k%2]++
		}
	}
	if count[0] == 0 || count[1] == 0 {
		return 0
	}
	return (spent[1].Seconds() / float64(count[1])) / (spent[0].Seconds() / float64(count[0]))
}

// pausedSlices marks which of the window's n slices of length slice a job
// burst ran in, from its first submission until its last job ended.
func pausedSlices(w window, slice time.Duration, n int) []bool {
	paused := make([]bool, n)
	at := func(d time.Duration) int { return min(max(int(d/slice), 0), n-1) }
	for _, burst := range w.bursts {
		if len(burst) == 0 {
			continue
		}
		from := burst[0].submitted.Sub(w.start)
		for k := at(from); k <= at(from+makespan(burst)); k++ {
			paused[k] = true
		}
	}
	return paused
}
