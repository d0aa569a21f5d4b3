package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ulba/internal/engine"
)

// reference renders the in-process body for a request: the engine's Run
// result, json.Marshal, then a trailing newline — the bytes a correct
// server must send.
func reference(ctx context.Context, b body) ([]byte, error) {
	d, ok := engine.ByType(b.typ)
	if !ok {
		return nil, fmt.Errorf("unknown engine type %q", b.typ)
	}
	inst, err := d.Decode(b.raw)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", b.typ, b.raw, err)
	}
	res, err := inst.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", b.typ, b.raw, err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// references renders the reference of every body, on as many workers as
// the closed loop has clients.
func references(ctx context.Context, bodies []body) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	next := make(chan int)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k], errs[k] = reference(ctx, bodies[k])
			}
		}()
	}
	for k := range bodies {
		next <- k
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkDeferred compares every 200 reply not checked during the window
// against the SHA-256 of its reference body.
func checkDeferred(ctx context.Context, p *plan, samples []sample) error {
	var idx []int
	var bodies []body
	for k := range samples {
		s := &samples[k]
		if s.err == nil && s.status == http.StatusOK && s.verdict == 0 {
			idx = append(idx, k)
			bodies = append(bodies, p.request(s.i))
		}
	}
	refs, err := references(ctx, bodies)
	if err != nil {
		return err
	}
	for n, k := range idx {
		samples[k].verdict = verdict(sha256.Sum256(refs[n]) == samples[k].sum)
	}
	return nil
}

// checkJobs compares every fetched job result with its reference body.
func checkJobs(ctx context.Context, jobs []*job) error {
	var bodies []body
	var idx []int
	for k, j := range jobs {
		if j.err == nil {
			bodies = append(bodies, j.b)
			idx = append(idx, k)
		}
	}
	refs, err := references(ctx, bodies)
	if err != nil {
		return err
	}
	for n, k := range idx {
		jobs[k].verdict = verdict(bytes.Equal(jobs[k].result, refs[n]))
	}
	return nil
}

// outcome counts what the window's replies were.
type outcome struct {
	attempted, failed          int
	transport, non2xx, shed429 int
	mismatch                   int
	byCache                    map[string]int
	byEndpoint                 map[string]int // replies per endpoint, any status
	forwarded                  int            // served by another node than the one dialed
}

func tally(ids []string, samples []sample) outcome {
	o := outcome{byCache: map[string]int{}, byEndpoint: map[string]int{}}
	for k := range samples {
		s := &samples[k]
		o.attempted++
		switch {
		case s.err != nil:
			o.transport++
		case s.status == http.StatusTooManyRequests:
			o.shed429++
		case s.status < 200 || s.status > 299:
			o.non2xx++
		case s.verdict < 0:
			o.mismatch++
		}
		if !s.ok() {
			o.failed++
		}
		if s.err == nil {
			o.byEndpoint["POST "+endpoint(s.typ)]++
			o.byCache[s.cache]++
			if s.servedBy != ids[s.node] {
				o.forwarded++
			}
		}
	}
	return o
}

// Store-spill's store-hit share must stay inside this band: the Zipf head
// fits the 4 MiB cache, the tail does not.
var storeHitBand = [2]float64{0.10, 0.70}

// assertMix checks that the workload stayed the workload it claims to be,
// returning one line per violation. d counts from the window's start until
// its jobs, one cache miss and one engine run each, were terminal.
func assertMix(p *plan, o outcome, d totals, jobs int) []string {
	var bad []string
	sync, nJobs := uint64(o.attempted), uint64(jobs)
	switch p.name {
	case "hot-hits":
		if o.byCache["hit"] != o.attempted {
			bad = append(bad, fmt.Sprintf("hot-hits: %d of %d replies were cache hits, want all", o.byCache["hit"], o.attempted))
		}
		if d.engineRuns != nJobs || d.misses != nJobs {
			bad = append(bad, fmt.Sprintf("hot-hits: %d engine runs and %d misses, want one each per job (%d)", d.engineRuns, d.misses, nJobs))
		}
	case "store-spill":
		share := float64(d.storeHits) / float64(max(sync, 1))
		if share < storeHitBand[0] || share > storeHitBand[1] {
			bad = append(bad, fmt.Sprintf("store-spill: store-hit share %.3f outside [%.2f, %.2f]", share, storeHitBand[0], storeHitBand[1]))
		}
		if d.evictions == 0 || d.engineRuns != nJobs {
			bad = append(bad, fmt.Sprintf("store-spill: %d evictions and %d engine runs, want some evictions and one run per job (%d)", d.evictions, d.engineRuns, nJobs))
		}
	case "cluster-burst":
		if d.forwards == 0 || o.forwarded == 0 {
			bad = append(bad, fmt.Sprintf("cluster-burst: %d forwards counted, %d replies forwarded, want both > 0", d.forwards, o.forwarded))
		}
		if d.replicasSent == 0 {
			bad = append(bad, "cluster-burst: no replicas sent")
		}
		// A stolen job still runs on node 0 too, unless the thief's body
		// arrived first, so each steal may add one run.
		if d.engineRuns < sync+nJobs || d.engineRuns > sync+nJobs+d.steals {
			bad = append(bad, fmt.Sprintf("cluster-burst: %d engine runs for %d fresh requests, %d jobs and %d steals, want one each and at most one more per steal",
				d.engineRuns, sync, nJobs, d.steals))
		}
	}
	if d.shed != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d requests shed", p.name, d.shed))
	}
	return bad
}

// endpointCounts parses the per-endpoint histogram counts of /metrics.
func endpointCounts(raw []byte) map[string]uint64 {
	const prefix = `ulba_http_request_duration_seconds_count{endpoint="`
	out := map[string]uint64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), prefix)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out
}

// assertHistograms cross-checks a single node's /metrics histogram counts
// against the replies the generator saw, endpoint by endpoint.
func assertHistograms(before, after []byte, o outcome) []string {
	b, a := endpointCounts(before), endpointCounts(after)
	var bad []string
	for _, t := range engineTypes {
		ep := "POST " + endpoint(t)
		if got, want := a[ep]-b[ep], uint64(o.byEndpoint[ep]); got != want {
			bad = append(bad, fmt.Sprintf("/metrics counts %d %s requests, the generator saw %d replies", got, ep, want))
		}
	}
	return bad
}
