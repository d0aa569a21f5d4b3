package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ulba/internal/engine"
)

// clients is the closed loop's size: two callers, each sending its next
// request only after the previous reply arrived.
const clients = 2

// newHTTPClient builds the generator's one HTTP client: at most one
// connection per client to any node, no compression, keep-alive on.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// sample is one measured request.
type sample struct {
	i        int // request index: plan.request(i) is its body
	typ      string
	node     int // the node dialed
	start    time.Duration
	lat      time.Duration
	status   int
	cache    string // X-Ulba-Cache
	servedBy string // X-Ulba-Node
	sum      [sha256.Size]byte
	verdict  int8 // 1 matches the reference, -1 differs, 0 not yet checked
	err      error
	traced   bool
}

func (s *sample) ok() bool { return s.err == nil && s.status == http.StatusOK && s.verdict >= 0 }

// job is one submitted batch job.
type job struct {
	b         body
	id        string
	submitted time.Time
	err       error
	status    jobStatus
	result    []byte
	verdict   int8
}

type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Error    string     `json:"error"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

func (s jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "cancelled"
}

// window is the result of one closed-loop measurement window.
type window struct {
	samples []sample
	start   time.Time
	dur     time.Duration // the window's length: no request starts after it
	elapsed time.Duration // from the window start to the last reply
	bursts  [][]*job      // the job bursts, in submission order
}

// loopConfig drives one closed-loop window.
type loopConfig struct {
	plan *plan
	cl   cluster
	hc   *http.Client
	dur  time.Duration
	refs map[string][]byte // reference bodies known before the window
	// tr, when set, records spans for the requests that start in odd
	// slices of length slice; even slices run untraced.
	tr    *tracer
	slice time.Duration
}

// closedLoop runs the window: each client takes the next request index,
// sends plan.request(i) to plan.node(i), and waits for the reply, until the
// window ends. Bodies with a known reference are compared at once; the rest
// keep a SHA-256 of every byte for checking after the window. Client 0 also
// submits the plan's job bursts to node 0, at the times burstAt gives. The
// synchronous requests pause while a burst runs, so a burst's makespan is
// the job path's alone and not how it happened to interleave with the
// other client's requests.
func closedLoop(ctx context.Context, cfg loopConfig) window {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(cfg.dur)
	per := make([][]sample, clients)
	var bursts [][]*job
	var gate sync.RWMutex // a request holds it shared, a burst alone
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				if k := len(bursts); c == 0 && k < len(cfg.plan.bursts) &&
					now.Sub(start) >= burstAt(k, len(cfg.plan.bursts), cfg.dur) {
					gate.Lock()
					burst := submitJobs(ctx, cfg.hc, cfg.cl[0], cfg.plan.bursts[k])
					// An error here shows again when the jobs are
					// awaited after the window.
					_ = awaitTerminal(ctx, cfg.hc, cfg.cl[0], burst, 30*time.Second)
					gate.Unlock()
					bursts = append(bursts, burst)
					continue
				}
				i := int(next.Add(1) - 1)
				var tr *tracer
				if cfg.tr != nil && (now.Sub(start)/cfg.slice)%2 == 1 {
					tr = cfg.tr
				}
				gate.RLock()
				per[c] = append(per[c], request(ctx, cfg, tr, i, now.Sub(start), &buf))
				gate.RUnlock()
			}
		}()
	}
	wg.Wait()
	w := window{start: start, dur: cfg.dur, elapsed: time.Since(start), bursts: bursts}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

// burstAt is when burst k of n is submitted: at the start of the slice
// (see syncFigures) that holds (k+1/2)/n of the window, so the bursts
// spread over the whole window and each covers as few slices as it can.
func burstAt(k, n int, dur time.Duration) time.Duration {
	at := dur * time.Duration(2*k+1) / time.Duration(2*n)
	return at - at%figureSlice
}

// request sends one measured request and checks its reply.
func request(ctx context.Context, cfg loopConfig, tr *tracer, i int, at time.Duration, buf *bytes.Buffer) sample {
	b := cfg.plan.request(i)
	node := cfg.plan.node(i)
	s := sample{i: i, typ: b.typ, node: node, start: at, traced: tr != nil}
	root := tr.begin("client."+b.typ, 0)
	rt := tr.begin("http.roundtrip", root)
	t0 := time.Now()
	status, hdr, raw, err := postInto(ctx, cfg.hc, cfg.cl[node].url+endpoint(b.typ), b.raw, buf)
	s.lat = time.Since(t0)
	tr.end(rt)
	ck := tr.begin("client.check", root)
	s.status, s.err = status, err
	if err == nil {
		s.cache, s.servedBy = hdr.Get("X-Ulba-Cache"), hdr.Get("X-Ulba-Node")
		if status == http.StatusOK {
			if ref, ok := cfg.refs[string(b.raw)]; ok {
				s.verdict = verdict(bytes.Equal(raw, ref))
			} else {
				s.sum = sha256.Sum256(raw)
			}
		}
	}
	tr.end(ck)
	tr.end(root)
	return s
}

func verdict(match bool) int8 {
	if match {
		return 1
	}
	return -1
}

func endpoint(typ string) string {
	d, ok := engine.ByType(typ)
	if !ok {
		panic("unknown engine type " + typ)
	}
	return d.Endpoint
}

func post(ctx context.Context, hc *http.Client, url string, raw []byte) (int, http.Header, []byte, error) {
	var buf bytes.Buffer
	return postInto(ctx, hc, url, raw, &buf)
}

// postInto is post reading the reply into buf, which the caller reuses so
// the closed loop allocates no reply buffers; the returned body aliases
// buf.
func postInto(ctx context.Context, hc *http.Client, url string, raw []byte, buf *bytes.Buffer) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes(), err
}

// submitJobs posts the burst to one node, in order.
func submitJobs(ctx context.Context, hc *http.Client, s *proc, burst []body) []*job {
	jobs := make([]*job, len(burst))
	for k, b := range burst {
		j := &job{b: b, submitted: time.Now()}
		jobs[k] = j
		sub, err := json.Marshal(struct {
			Type    string          `json:"type"`
			Request json.RawMessage `json:"request"`
		}{b.typ, b.raw})
		if err != nil {
			j.err = err
			continue
		}
		status, _, raw, err := post(ctx, hc, s.url+"/v1/jobs", sub)
		switch {
		case err != nil:
			j.err = err
		case status != http.StatusAccepted:
			j.err = fmt.Errorf("POST /v1/jobs: status %d: %s", status, bytes.TrimSpace(raw))
		default:
			var st jobStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				j.err = err
			}
			j.id = st.ID
		}
	}
	return jobs
}

// awaitTerminal polls the node until every submitted job is terminal.
func awaitTerminal(ctx context.Context, hc *http.Client, s *proc, jobs []*job, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		pending := 0
		for _, j := range jobs {
			if j.err != nil || j.status.terminal() {
				continue
			}
			if err := getJSON(ctx, hc, s.url+"/v1/jobs/"+j.id, &j.status); err != nil {
				return err
			}
			if !j.status.terminal() {
				pending++
				break // the queue starts jobs in submission order: poll one at a time
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("jobs still pending after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitJobs waits until every submitted job is terminal, then fetches each
// result.
func awaitJobs(ctx context.Context, hc *http.Client, s *proc, jobs []*job) error {
	if err := awaitTerminal(ctx, hc, s, jobs, 90*time.Second); err != nil {
		return err
	}
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if j.status.State != "done" {
			j.err = fmt.Errorf("job %s ended %s: %s", j.id, j.status.State, j.status.Error)
			continue
		}
		j.result, j.err = get(ctx, hc, s.url+"/v1/jobs/"+j.id+"/result")
	}
	return nil
}

// makespan is the time from the first submission of the burst until its
// last job was terminal.
func makespan(jobs []*job) time.Duration {
	if len(jobs) == 0 {
		return 0
	}
	first := jobs[0].submitted
	var last time.Time
	for _, j := range jobs {
		if f := j.status.Finished; f != nil && f.After(last) {
			last = *f
		}
	}
	return last.Sub(first)
}
