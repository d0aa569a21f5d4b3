package main

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// engineTypes lists the five engines in registration order; every workload
// sends bodies of all five, so the traced run can time each engine on the
// bodies the workload actually served.
var engineTypes = []string{"experiment", "sweep", "runtime", "runtime-sweep", "assess"}

// body is one request body for an engine's synchronous endpoint (or, as a
// job, for POST /v1/jobs with the same type).
type body struct {
	typ string
	raw []byte
}

// plan is one workload made concrete from the benchmark seed: everything
// the servers will receive, and the configuration they run with. The seed
// changes the bodies only; the sequence of engine types, the Zipf ranks and
// the sizes of every batch are fixed, so the seed never changes the
// workload's outcome mix.
type plan struct {
	name    string
	nodes   int
	cacheMB int
	store   bool // start each node with its own -store-dir

	// Fixed-set workloads (hot-hits, store-spill) repeat the bodies of
	// fixed in the order of order, cycled. The fresh workload
	// (cluster-burst) sends fresh(i) as its i-th request instead.
	fixed []body
	order []int
	fresh func(i int) body
	// fill lists the bodies store-spill writes into the store before the
	// server starts (its whole key set).
	fill []body
	// warm is the warm-up each setup ends with, part of setup_s.
	warm []body
	// bursts are the batch-job bursts, submitted to node 0 at evenly
	// spaced times in the window.
	bursts [][]body
}

// request returns the body of the i-th measured request.
func (p *plan) request(i int) body {
	if p.fresh != nil {
		return p.fresh(i)
	}
	return p.fixed[p.order[i%len(p.order)]]
}

// node returns the node the i-th measured request is sent to: round-robin
// across the cluster, always node 0 on a single server.
func (p *plan) node(i int) int { return i % p.nodes }

var workloadNames = []string{"hot-hits", "store-spill", "cluster-burst"}

// newPlan builds the named workload for a seed.
func newPlan(name string, seed uint64) (*plan, error) {
	switch name {
	case "hot-hits":
		return hotHits(seed), nil
	case "store-spill":
		return storeSpill(seed), nil
	case "cluster-burst":
		return clusterBurst(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// derive maps (seed, salt) to an independent 40-bit base: request seeds are
// base + k, small enough to read well in a body and unique within a run.
func derive(seed uint64, salt string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(salt) {
		h = splitmix(h ^ uint64(c))
	}
	return splitmix(h) >> 24
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// criteria3 is the three-criteria assessment panel of the ROADMAP baseline.
// Its planner needs a modeled workload, so it only scores explicit linear
// scenarios; sampled scenarios (any registered workload) are scored by
// triggers3.
const (
	criteria3 = `[{"trigger":{"name":"degradation"}},{"trigger":{"name":"menon"}},{"name":"plan","planner":{"name":"sigma+"}}]`
	triggers3 = `[{"trigger":{"name":"degradation"}},{"trigger":{"name":"menon"}},{"trigger":{"name":"wli"}}]`
)

// burstyP8 is the ROADMAP's runtime scenario: p=8, 200 iterations of the
// bursty workload.
const burstyP8 = `{"p":8,"iterations":200,"workload":{"name":"bursty","seed":%d}}`

// templates maps an engine type to a body with one %d seed slot.
type templates map[string]string

func (t templates) body(typ string, seed uint64) body {
	return body{typ: typ, raw: fmt.Appendf(nil, t[typ], seed)}
}

// hotHits repeats eight distinct bodies across all five engines after a
// warm-up that computes each once: every measured request is a cache hit.
// The set holds the request-decode baseline bodies of the ROADMAP: a
// sampled sweep, the p=8 200-iteration bursty runtime, sampled and
// two-scenario explicit runtime-sweeps, and the three-criteria assessment
// of one scenario. A cycle of ten requests sends three cheap hits, the
// runtime hit three times and four slower hits. The median latency is then
// that of the one runtime body, at about its two-thirds point: a runtime
// hit takes one of two times, the longer when it shares the cores with a
// slower hit, and a median nearer the shorter would jump between the two.
func hotHits(seed uint64) *plan {
	s := derive(seed, "hot")
	assess := `{"criteria":` + criteria3 + `,"scenarios":[{"p":8,"workload":{"name":"linear","seed":%d}}]}`
	fixed := []body{
		{"sweep", fmt.Appendf(nil, `{"sample":{"seed":%d,"n":200}}`, s)},
		{"runtime", fmt.Appendf(nil, burstyP8, s+1)},
		{"assess", fmt.Appendf(nil, assess, s+2)},
		{"experiment", fmt.Appendf(nil, `{"p":4,"iterations":20,"seed":%d}`, s+3)},
		{"runtime-sweep", fmt.Appendf(nil, `{"scenarios":[%s]}`, scenarios(2, burstyP8, s+4))},
		{"assess", fmt.Appendf(nil, assess, s+6)},
		{"runtime-sweep", fmt.Appendf(nil, `{"scenarios":[%s]}`, scenarios(2, burstyP8, s+7))},
		{"runtime-sweep", fmt.Appendf(nil, `{"sample":{"seed":%d,"n":2}}`, s+9)},
	}
	return &plan{
		name: "hot-hits", nodes: 1, cacheMB: 64,
		fixed: fixed, order: []int{0, 1, 2, 3, 1, 4, 5, 1, 6, 7}, warm: fixed,
		bursts: jobBursts(seed),
	}
}

// Store-spill sizing: spillKeys bodies averaging about 140 KB (21 MB in
// all) against a 4 MiB cache, requested with Zipf(spillZipfS) popularity.
// Every body has a fixed shape, so the bytes a request moves do not depend
// on the seed, and most are 256 KB sweeps: a reply costs about half a
// millisecond, mostly moving bytes, not one wake-up of each process.
const (
	spillKeys   = 150
	spillCache  = 4
	spillZipfS  = 1.0
	spillOrder  = 8192
	spillWarmup = 10
)

var spillPattern = []string{"sweep", "sweep", "runtime-sweep", "sweep", "assess", "experiment", "sweep", "runtime"}

var spillTemplates = templates{
	"experiment":    `{"p":8,"iterations":30,"seed":%d}`,
	"sweep":         `{"sample":{"seed":%d,"n":800}}`,
	"runtime":       `{"p":8,"iterations":200,"workload":{"name":"bursty","seed":%d}}`,
	"runtime-sweep": `{"scenarios":[{"p":16,"iterations":300,"workload":{"name":"bursty","seed":%d}}]}`,
	"assess":        `{"criteria":` + triggers3 + `,"scenarios":[{"p":8,"iterations":150,"workload":{"name":"bursty","seed":%d}}]}`,
}

// storeSpill restarts one server on a store holding several times its
// cache budget and draws keys Zipf-skewed: the LRU serves the head and the
// store serves the tail.
func storeSpill(seed uint64) *plan {
	base := derive(seed, "spill")
	fixed := make([]body, spillKeys)
	for r := range fixed {
		fixed[r] = spillTemplates.body(spillPattern[r%len(spillPattern)], base+uint64(r))
	}
	warm := make([]body, spillWarmup)
	copy(warm, fixed)
	return &plan{
		name: "store-spill", nodes: 1, cacheMB: spillCache, store: true,
		fixed: fixed, order: zipfOrder(spillKeys, spillOrder), fill: fixed, warm: warm,
		bursts: jobBursts(seed),
	}
}

// zipfOrder draws n ranks in [0, keys) with P(r) proportional to
// 1/(r+1)^spillZipfS. The draw uses a fixed generator, not the benchmark
// seed: the seed changes what each rank's body is, never how often a rank
// is requested.
func zipfOrder(keys, n int) []int {
	cdf := make([]float64, keys)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), spillZipfS)
		cdf[r] = sum
	}
	rng := rand.New(rand.NewPCG(2019, 11))
	order := make([]int, n)
	for i := range order {
		u := rng.Float64() * sum
		lo, hi := 0, keys-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		order[i] = lo
	}
	return order
}

// clusterTemplates are small fixed shapes, 1 to 4 ms of engine time each on
// a 2-core x86 box: forwarding and replication weigh next to the engines,
// and computing the reference of every reply after the window takes about
// half as long as the window.
var clusterTemplates = templates{
	"experiment":    `{"p":2,"iterations":4,"seed":%d}`,
	"sweep":         `{"sample":{"seed":%d,"n":20}}`,
	"runtime":       `{"p":4,"iterations":100,"workload":{"name":"linear","seed":%d}}`,
	"runtime-sweep": `{"scenarios":[{"p":4,"iterations":100,"workload":{"name":"bursty","seed":%d}}]}`,
	"assess":        `{"criteria":[{"trigger":{"name":"degradation"}},{"trigger":{"name":"menon"}}],"scenarios":[{"p":4,"iterations":50,"workload":{"name":"linear","seed":%d}}]}`,
}

var clusterPattern = []string{"sweep", "runtime", "experiment", "sweep", "runtime",
	"runtime-sweep", "sweep", "runtime", "assess", "runtime-sweep"}

// clusterBurst drives three nodes round-robin with fresh bodies, so about a
// third of the requests are forwarded and every miss is replicated, while
// bursts of batch jobs queue on node 0.
func clusterBurst(seed uint64) *plan {
	base := derive(seed, "cluster")
	fresh := func(i int) body {
		return clusterTemplates.body(clusterPattern[i%len(clusterPattern)], base+2*uint64(i))
	}
	warm := make([]body, 6)
	for i := range warm {
		warm[i] = clusterTemplates.body(clusterPattern[i], base+2*uint64(i)+1)
	}
	return &plan{
		name: "cluster-burst", nodes: 3, cacheMB: 64, store: true,
		fresh: fresh, warm: warm,
		bursts: jobBursts(seed),
	}
}

// A run submits jobBurstCount bursts of jobBurstSize jobs, cycling a
// two-scenario runtime-sweep, an experiment, a three-trigger assessment of
// one scenario and another experiment, all of fixed shapes; a burst is
// many times the job workers of one node, so its queue builds. A finished
// job keeps what it built until the job retention (1 h) expires: on
// x86-64, about 1.5 MB per sweep or assessment here, against 4 MB for a
// sampled eight-scenario sweep, and almost nothing per experiment. The
// experiments make a burst long enough (about 0.25 s on 2 cores) for its
// makespan to be measured steadily without the sweeps and assessments
// holding more memory.
const (
	jobBurstCount = 8
	jobBurstSize  = 24
)

func jobBursts(seed uint64) [][]body {
	base := derive(seed, "jobs")
	out := make([][]body, jobBurstCount)
	for k := range out {
		out[k] = make([]body, jobBurstSize)
		for j := range out[k] {
			s := base + uint64(k*jobBurstSize+j)
			switch j % 4 {
			case 0:
				out[k][j] = body{"runtime-sweep", fmt.Appendf(nil, `{"scenarios":[%s]}`, scenarios(2, burstyP8, 2*s))}
			case 2:
				out[k][j] = body{"assess", fmt.Appendf(nil, `{"criteria":%s,"scenarios":[{"p":8,"iterations":150,"workload":{"name":"bursty","seed":%d}}]}`, triggers3, s)}
			default:
				out[k][j] = body{"experiment", fmt.Appendf(nil, `{"p":8,"iterations":30,"seed":%d}`, s)}
			}
		}
	}
	return out
}

// scenarios renders n comma-separated scenario objects with seeds s, s+1, ...
func scenarios(n int, format string, s uint64) []byte {
	var out []byte
	for k := range n {
		if k > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, format, s+uint64(k))
	}
	return out
}
