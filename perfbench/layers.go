package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ulba/internal/engine"
	"ulba/internal/jobs"
	"ulba/internal/server"
)

// Traced-run sizing: how many distinct bodies per engine the layer probe
// times, how many requests the in-process handler replays, how many
// records the store probe writes, and the time each probe repeats for.
const (
	probeBodies   = 4
	handlerReplay = 300
	storeRecords  = 200
	probeBudget   = 30 * time.Millisecond
)

// layerProbe times each layer's public functions in-process, on the bodies
// the workload sent, with every call inside a span. It runs after the
// servers stopped, so the probe has both cores to itself.
type layerProbe struct {
	ctx    context.Context
	p      *plan
	tr     *tracer
	dir    string // scratch space for the probe's stores
	values map[string][]float64
}

func (lp *layerProbe) add(name string, v float64) { lp.values[name] = append(lp.values[name], v) }

// probeSet picks up to probeBodies distinct bodies per engine, in the order
// the workload sends them.
func probeSet(p *plan) map[string][]body {
	seen := map[string]bool{}
	out := map[string][]body{}
	for i := 0; i < 20000; i++ {
		b := p.request(i)
		if seen[string(b.raw)] || len(out[b.typ]) >= probeBodies {
			continue
		}
		seen[string(b.raw)] = true
		out[b.typ] = append(out[b.typ], b)
	}
	return out
}

// repeat calls fn inside a span of the given name until probeBudget has
// passed (at least 3 and at most 200 times) and records each duration
// under the metric name+".us".
func (lp *layerProbe) repeat(name string, parent int, fn func()) {
	start := time.Now()
	for k := 0; k < 200 && (k < 3 || time.Since(start) < probeBudget); k++ {
		lp.add(name+".us", us(lp.tr.timed(name, parent, fn)))
	}
}

// allocs is the fewest heap allocations of three calls of fn.
func allocs(fn func()) float64 {
	best := -1.0
	var m0, m1 runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&m0)
		fn()
		runtime.ReadMemStats(&m1)
		if n := float64(m1.Mallocs - m0.Mallocs); best < 0 || n < best {
			best = n
		}
	}
	return best
}

// engines times decode, key, run and marshal per engine type and returns
// the rendered bodies.
func (lp *layerProbe) engines(set map[string][]body) ([][]byte, error) {
	var rendered [][]byte
	for _, t := range engineTypes {
		d, _ := engine.ByType(t)
		for _, b := range set[t] {
			root := lp.tr.begin("layers."+t, 0)
			var inst *engine.Instance
			var err error
			lp.repeat("engine.decode."+t, root, func() { inst, err = d.Decode(b.raw) })
			if err != nil {
				return nil, err
			}
			lp.repeat("engine.key", root, func() { _, err = inst.Key() })
			var res any
			var runs []float64
			start := time.Now()
			for k := 0; k < 20 && (k < 1 || time.Since(start) < probeBudget); k++ {
				var rerr error
				dur := lp.tr.timed("engine.run."+t, root, func() { res, rerr = inst.Run(lp.ctx) })
				if rerr != nil {
					return nil, rerr
				}
				runs = append(runs, us(dur)/float64(inst.Units()))
			}
			lp.add("engine.run."+t+".us_per_unit", median(runs))
			var buf []byte
			lp.repeat("engine.marshal."+t, root, func() { buf, err = json.Marshal(res) })
			if err != nil {
				return nil, err
			}
			lp.tr.end(root)

			lp.add("engine.decode."+t+".allocs", allocs(func() { d.Decode(b.raw) }))
			lp.add("engine.run."+t+".allocs_per_unit", allocs(func() { inst.Run(lp.ctx) })/float64(inst.Units()))
			lp.add("engine.marshal."+t+".bytes", float64(len(buf)+1))
			rendered = append(rendered, append(buf, '\n'))
		}
	}
	return rendered, nil
}

// handler replays the start of the workload's request sequence through an
// in-process Server.Handler().ServeHTTP configured like the workload's
// server, so each request meets the outcome it met over TCP: hits after
// hot-hits' warm-up, misses on a fresh store, the spill store's mix.
func (lp *layerProbe) handler(storeDir string) error {
	cfg := server.Config{CacheBytes: int64(lp.p.cacheMB) << 20}
	if lp.p.store {
		if storeDir == "" {
			storeDir = filepath.Join(lp.dir, "handler-store")
		}
		st, err := jobs.Open(storeDir)
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close(lp.ctx)
	h := srv.Handler()
	serve := func(b body, name string) error {
		req := httptest.NewRequest(http.MethodPost, endpoint(b.typ), bytes.NewReader(b.raw))
		rec := httptest.NewRecorder()
		lp.tr.timed(name, 0, func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d: %s", b.typ, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	}
	for _, b := range lp.p.warm {
		if err := serve(b, "server.handler.warm"); err != nil {
			return err
		}
	}
	for i := range handlerReplay {
		b := lp.p.request(i)
		if err := serve(b, "server.handler."+b.typ); err != nil {
			return err
		}
	}
	return nil
}

// store times Put and Get of storeRecords records (the rendered probe
// bodies under distinct keys), then Open and Range of the workload's own
// store — the one its server ran on — or of the probe store when the
// workload has none.
func (lp *layerProbe) store(rendered [][]byte, workloadStore string) error {
	dir := filepath.Join(lp.dir, "probe-store")
	st, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	keys := make([]string, storeRecords)
	for k := range keys {
		keys[k] = fmt.Sprintf("%064x", k+1)
		body := rendered[k%len(rendered)]
		var perr error
		lp.add("jobs.store.put.us", us(lp.tr.timed("jobs.store.put", 0, func() { perr = st.Put(keys[k], body) })))
		if perr != nil {
			return perr
		}
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for _, k := range rng.Perm(len(keys)) {
		var ok bool
		var gerr error
		lp.add("jobs.store.get.us", us(lp.tr.timed("jobs.store.get", 0, func() { _, ok, gerr = st.Get(keys[k]) })))
		if gerr != nil || !ok {
			return fmt.Errorf("store probe: Get %s: ok=%v err=%v", keys[k], ok, gerr)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	if workloadStore == "" {
		workloadStore = dir
	}
	for range 3 {
		var oerr error
		lp.add("jobs.store.open.ms", ms(lp.tr.timed("jobs.store.open", 0, func() { st, oerr = jobs.Open(workloadStore) })))
		if oerr != nil {
			return oerr
		}
		n := 0
		lp.add("jobs.store.range.ms", ms(lp.tr.timed("jobs.store.range", 0, func() {
			st.Range(func(string, []byte) bool { n++; return true })
		})))
		st.Close()
		if n == 0 {
			return fmt.Errorf("store probe: %s holds no records", workloadStore)
		}
	}
	return os.RemoveAll(dir)
}
