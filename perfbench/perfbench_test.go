package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ulba/internal/jobs"
	"ulba/internal/server"
)

// citedWorkloads and citedEndToEnd are the names later changes cite; they
// must not drift.
var (
	citedWorkloads = []string{"hot-hits", "store-spill", "cluster-burst"}
	citedEndToEnd  = []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "setup_s", "peak_rss_mb", "job_makespan_s"}
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, metricName)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
	}
	for _, m := range perLayer() {
		if m.moves == "" {
			t.Errorf("per-layer metric %q names no end-to-end metric it moves", m.name)
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONListsEveryName(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !equal(names, citedWorkloads) || !equal(workloadNames, citedWorkloads) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v, want %v", names, workloadNames, citedWorkloads)
	}

	names = nil
	for k, m := range b.EndToEnd {
		names = append(names, m.Name)
		if k < len(endToEnd) && (m.Unit != endToEnd[k].unit || m.Better != endToEnd[k].better) {
			t.Errorf("end-to-end %s: BENCHMARK.json says %s/%s, the code reports %s/%s", m.Name, m.Unit, m.Better, endToEnd[k].unit, endToEnd[k].better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var code []string
	for _, m := range endToEnd {
		code = append(code, m.name)
	}
	if !equal(names, citedEndToEnd) || !equal(code, citedEndToEnd) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, code %v, want %v", names, code, citedEndToEnd)
	}

	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code reports %d", len(b.PerLayer), len(layers))
	}
	for k, m := range b.PerLayer {
		if want := layers[k]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", k, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layers {
		if !bytes.Contains(readme, []byte("`"+m.name+"`")) {
			t.Errorf("README.md does not say which end-to-end metric %s moves", m.name)
		}
	}
}

func equal(a, b []string) bool {
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// TestSeedChangesBodiesNotMix compares two seeds of every workload: the
// same engine types go to the same nodes in the same order, with other
// bodies.
func TestSeedChangesBodiesNotMix(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newPlan(name, 1)
		b, _ := newPlan(name, 2)
		if a.nodes != b.nodes || a.cacheMB != b.cacheMB || a.store != b.store ||
			len(a.fixed) != len(b.fixed) || len(a.warm) != len(b.warm) || len(a.bursts) != len(b.bursts) {
			t.Errorf("%s: the seed changed the workload's shape", name)
		}
		same := 0
		for i := range 2000 {
			ra, rb := a.request(i), b.request(i)
			if ra.typ != rb.typ || a.node(i) != b.node(i) {
				t.Fatalf("%s: request %d is %s on node %d for seed 1, %s on node %d for seed 2", name, i, ra.typ, a.node(i), rb.typ, b.node(i))
			}
			if bytes.Equal(ra.raw, rb.raw) {
				same++
			}
		}
		if same != 0 {
			t.Errorf("%s: %d of 2000 bodies are the same for seeds 1 and 2", name, same)
		}
		for k := range a.bursts {
			for j := range a.bursts[k] {
				if ja, jb := a.bursts[k][j], b.bursts[k][j]; ja.typ != jb.typ || bytes.Equal(ja.raw, jb.raw) {
					t.Errorf("%s: burst %d job %d: the seed must change the body and keep the type", name, k, j)
				}
			}
		}
	}
}

// TestFreshBodiesNeverRepeat checks that the fresh workload never sends one
// body twice in a run, nor a warm-up body.
func TestFreshBodiesNeverRepeat(t *testing.T) {
	for _, name := range []string{"cluster-burst"} {
		p, _ := newPlan(name, 7)
		seen := map[string]bool{}
		for _, b := range p.warm {
			seen[string(b.raw)] = true
		}
		for i := range 50000 {
			b := p.request(i)
			if seen[string(b.raw)] {
				t.Fatalf("%s: request %d repeats a body: %s", name, i, b.raw)
			}
			seen[string(b.raw)] = true
		}
	}
}

// TestOutcomeMixInProcess serves two seeds of each single-node workload
// through an in-process server and checks the outcome mix is the
// workload's and the same for both seeds.
func TestOutcomeMixInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("computes every body of the workloads")
	}
	ctx := context.Background()
	shares := map[string][]float64{}
	for _, name := range []string{"hot-hits", "store-spill"} {
		for _, seed := range []uint64{1, 2} {
			p, _ := newPlan(name, seed)
			cfg := server.Config{CacheBytes: int64(p.cacheMB) << 20}
			if p.store {
				dir := t.TempDir()
				if p.fill != nil {
					rendered, err := references(ctx, p.fill)
					if err != nil {
						t.Fatal(err)
					}
					refs := map[string][]byte{}
					for k, b := range p.fill {
						refs[string(b.raw)] = rendered[k]
					}
					if err := fillStore(dir, p.fill, refs); err != nil {
						t.Fatal(err)
					}
				}
				st, err := jobs.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = st
			}
			srv, err := server.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			serve := func(b body) string {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, endpoint(b.typ), bytes.NewReader(b.raw)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s seed %d: %s: status %d: %s", name, seed, b.typ, rec.Code, rec.Body)
				}
				return rec.Header().Get("X-Ulba-Cache")
			}
			for _, b := range p.warm {
				serve(b)
			}
			n := 40
			if name == "store-spill" {
				n = 3000
			}
			count := map[string]int{}
			for i := range n {
				count[serve(p.request(i))]++
			}
			ctxc, cancel := context.WithTimeout(ctx, 10*time.Second)
			srv.Close(ctxc)
			cancel()
			switch name {
			case "hot-hits":
				if count["hit"] != n {
					t.Errorf("hot-hits seed %d: outcomes %v, want %d hits", seed, count, n)
				}
			case "store-spill":
				share := float64(count["store"]) / float64(n)
				if count["hit"]+count["store"] != n || share < storeHitBand[0] || share > storeHitBand[1] {
					t.Errorf("store-spill seed %d: outcomes %v, want hits and store reads only, store share in %v", seed, count, storeHitBand)
				}
				shares[name] = append(shares[name], share)
			}
		}
	}
	if s := shares["store-spill"]; len(s) == 2 && math.Abs(s[0]-s[1]) > 0.05 {
		t.Errorf("store-spill: store-hit share %.3f for seed 1, %.3f for seed 2", s[0], s[1])
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]time.Duration{"root": 50, "a": 30, "b": 20, "c": 10} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

func TestPercentile(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(1000 - i)
	}
	if p := percentile(ds, 0.99); p != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", p)
	}
	if p := percentile(ds, 0.5); p != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", p)
	}
}

// TestSyncFigures checks that the figures leave out the slices a job burst
// ran in and take the faster half of the rest.
func TestSyncFigures(t *testing.T) {
	start := time.Now()
	w := window{start: start, dur: 6 * time.Second}
	// Successful requests per slice: 10, 50 (burst), 20, 40, 30, 60; one
	// failed request in slice 5 counts for nothing.
	for k, n := range []int{10, 50, 20, 40, 30, 60} {
		for i := range n {
			w.samples = append(w.samples, sample{status: http.StatusOK, start: time.Duration(k)*time.Second + time.Duration(i),
				lat: time.Duration(k+1) * time.Millisecond})
		}
	}
	w.samples = append(w.samples, sample{status: http.StatusInternalServerError, start: 5 * time.Second})
	finished := start.Add(1500 * time.Millisecond)
	w.bursts = [][]*job{{{submitted: start.Add(time.Second), status: jobStatus{Finished: &finished}}}}
	f := syncFigures(w)
	if want := []bool{false, true, false, false, false, false}; fmt.Sprint(f.busy) != fmt.Sprint(want) {
		t.Errorf("busy slices %v, want %v", f.busy, want)
	}
	// The quiet slices are 0, 2, 3, 4 and 5; the faster half is 5, 3, 4.
	if want := []bool{false, false, false, true, true, true}; fmt.Sprint(f.used) != fmt.Sprint(want) {
		t.Errorf("slices used %v, want %v", f.used, want)
	}
	if f.rate != 130.0/3 || len(f.lats) != 130 {
		t.Errorf("rate %v over %d latencies, want %v over 130", f.rate, len(f.lats), 130.0/3)
	}
}

// TestOverheadRatio checks the traced over untraced time per request, with
// a slice a burst paused left out.
func TestOverheadRatio(t *testing.T) {
	start := time.Now()
	w := window{start: start, elapsed: 2 * time.Second}
	// Requests per 500 ms slice: 10 untraced, 8 traced, 30 in slice 2
	// (paused by a burst), 8 traced.
	for k, n := range []int{10, 8, 30, 8} {
		for i := range n {
			w.samples = append(w.samples, sample{start: time.Duration(k)*500*time.Millisecond + time.Duration(i)})
		}
	}
	finished := start.Add(1200 * time.Millisecond)
	w.bursts = [][]*job{{{submitted: start.Add(1100 * time.Millisecond), status: jobStatus{Finished: &finished}}}}
	if got, want := overheadRatio(w, 500*time.Millisecond), (1.0/16)/(0.5/10); math.Abs(got-want) > 1e-12 {
		t.Errorf("overhead ratio %v, want %v", got, want)
	}
}

// TestClosedLoopChecksEveryReply drives the closed loop against an
// in-process server, with tracing on, and corrupts one engine's replies:
// every reply of that engine must count as a mismatch, every other as a
// match.
func TestClosedLoopChecksEveryReply(t *testing.T) {
	ctx := context.Background()
	p, _ := newPlan("hot-hits", 3)
	p.bursts = nil // the replies are under test here, not the jobs
	rendered, err := references(ctx, p.fixed)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string][]byte{}
	for k, b := range p.fixed {
		refs[string(b.raw)] = rendered[k]
	}
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	corrupt := endpoint("experiment")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.URL.Path == corrupt && len(body) > 0 {
			body[0] ^= 1
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()

	tr := newTracer()
	w := closedLoop(ctx, loopConfig{
		plan: p, cl: cluster{{url: ts.URL, id: "n0"}}, hc: newHTTPClient(),
		dur: 600 * time.Millisecond, refs: refs, tr: tr, slice: 100 * time.Millisecond,
	})
	var traced, bad int
	for _, s := range w.samples {
		if s.err != nil || s.status != http.StatusOK {
			t.Fatalf("request %d (%s): status %d, err %v", s.i, s.typ, s.status, s.err)
		}
		if want := verdict(s.typ != "experiment"); s.verdict != want {
			t.Errorf("request %d (%s): verdict %d, want %d", s.i, s.typ, s.verdict, want)
		}
		if s.verdict < 0 {
			bad++
		}
		if s.traced {
			traced++
		}
	}
	if bad == 0 || traced == 0 || traced == len(w.samples) {
		t.Errorf("%d samples, %d mismatched, %d traced: want some of each", len(w.samples), bad, traced)
	}
	if n := len(tr.durations("http.roundtrip")); n != traced {
		t.Errorf("%d roundtrip spans for %d traced requests", n, traced)
	}
	if o := tally([]string{"n0"}, w.samples); o.mismatch != bad || o.failed != bad {
		t.Errorf("tally counts %d mismatches and %d failures, want %d", o.mismatch, o.failed, bad)
	}
}
