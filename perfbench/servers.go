package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one running ulba-serve process.
type proc struct {
	url  string
	id   string // node ID ("n0".."n2"), from /v1/stats
	cmd  *exec.Cmd
	done chan error // receives Wait's result once the process exited
	log  *os.File
}

// cluster is the set of nodes of one setup.
type cluster []*proc

// startServers launches p.nodes ulba-serve processes, each with its own
// store directory under dir when the plan asks for one, and waits until
// every node listens (and, for a cluster, has heard from every peer).
func startServers(ctx context.Context, bin, dir string, p *plan, hc *http.Client) (cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs := make([]string, p.nodes)
	if p.nodes == 1 {
		addrs[0] = "127.0.0.1:0"
	} else {
		ports, err := freePorts(p.nodes)
		if err != nil {
			return nil, err
		}
		for i, port := range ports {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
		}
	}
	peers := make([]string, len(addrs))
	for i, a := range addrs {
		peers[i] = "http://" + a
	}
	var cl cluster
	for i, addr := range addrs {
		args := []string{"-addr", addr, "-cache-mb", strconv.Itoa(p.cacheMB)}
		if p.store {
			args = append(args, "-store-dir", filepath.Join(dir, fmt.Sprintf("store%d", i)))
		}
		if p.nodes > 1 {
			args = append(args, "-peers", strings.Join(peers, ","), "-self", peers[i])
		}
		s, err := launch(bin, args, filepath.Join(dir, fmt.Sprintf("node%d.log", i)))
		if err != nil {
			cl.stop()
			return nil, err
		}
		cl = append(cl, s)
	}
	for _, s := range cl {
		var st stats
		if err := getJSON(ctx, hc, s.url+"/v1/stats", &st); err != nil {
			cl.stop()
			return nil, err
		}
		s.id = st.Node.ID
	}
	if p.nodes > 1 {
		if err := cl.awaitJoin(ctx, hc); err != nil {
			cl.stop()
			return nil, err
		}
	}
	return cl, nil
}

// freePorts reserves n loopback ports and releases them for the nodes,
// whose -peers lists must name every port before any node starts.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// launch starts one process and waits for its "listening on" line.
func launch(bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The server dies with the benchmark, whatever ends the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &proc{cmd: cmd, done: make(chan error, 1), log: logf}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "ulba-serve listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, out)
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
		return s, nil
	case err := <-s.done:
		logf.Close()
		return nil, fmt.Errorf("ulba-serve %v exited before listening: %v (log %s)", args, err, logPath)
	case <-time.After(30 * time.Second):
		s.kill()
		logf.Close()
		return nil, fmt.Errorf("ulba-serve %v did not start within 30s (log %s)", args, logPath)
	}
}

// awaitJoin waits until every node has a gossip heartbeat from every
// other node: the cluster-join part of setup.
func (cl cluster) awaitJoin(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		joined := true
		for _, s := range cl {
			var st stats
			if err := getJSON(ctx, hc, s.url+"/v1/stats", &st); err != nil {
				return err
			}
			c := st.Node.Cluster
			if c == nil || c.Live != len(cl) {
				joined = false
				break
			}
			for _, peer := range c.Peers {
				if !peer.Self && peer.Heartbeat == 0 {
					joined = false
				}
			}
		}
		if joined {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster nodes did not hear from each other within 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop shuts every node down with SIGTERM and waits for each to exit. It
// reports the first node that did not shut down gracefully.
func (cl cluster) stop() error {
	for _, s := range cl {
		s.cmd.Process.Signal(syscall.SIGTERM)
	}
	var first error
	for _, s := range cl {
		select {
		case err := <-s.done:
			if err != nil && first == nil {
				first = fmt.Errorf("ulba-serve %s: shutdown: %v", s.url, err)
			}
		case <-time.After(20 * time.Second):
			s.kill()
			if first == nil {
				first = fmt.Errorf("ulba-serve %s: no shutdown within 20s", s.url)
			}
		}
		s.log.Close()
	}
	return first
}

func (s *proc) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// procStatusKB reads one "Name: N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// cpuTicks reads the machine-wide CPU time from /proc/stat: all ticks and
// the ticks the hypervisor gave to someone else (steal).
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		n, _ := strconv.ParseUint(f[i], 10, 64)
		total += n
		if i == 8 {
			steal = n
		}
	}
	return total, steal
}

// selfCPU is the user+system CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (cl cluster) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, s := range cl {
		c, err := procCPU(s.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// stats is the subset of GET /v1/stats the benchmark reads.
type stats struct {
	EngineRuns uint64 `json:"engine_runs"`
	Admission  struct {
		Shed uint64 `json:"shed"`
	} `json:"admission"`
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Joins     uint64 `json:"single_flight_joins"`
		StoreHits uint64 `json:"store_hits"`
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Node struct {
		ID      string `json:"id"`
		Cluster *struct {
			Live  int `json:"live"`
			Peers []struct {
				Self      bool `json:"self"`
				Heartbeat int  `json:"heartbeat"`
			} `json:"peers"`
			Forwards     uint64 `json:"forwards"`
			ReplicasSent uint64 `json:"replicas_sent"`
			StealsRun    uint64 `json:"steals_run"`
		} `json:"cluster"`
	} `json:"node"`
}

// totals is the cluster-wide sum of the counters the benchmark uses.
type totals struct {
	engineRuns, shed                          uint64
	hits, misses, joins, storeHits, evictions uint64
	forwards, replicasSent, steals            uint64
}

func (cl cluster) totals(ctx context.Context, hc *http.Client) (totals, error) {
	var t totals
	for _, s := range cl {
		var st stats
		if err := getJSON(ctx, hc, s.url+"/v1/stats", &st); err != nil {
			return t, err
		}
		t.engineRuns += st.EngineRuns
		t.shed += st.Admission.Shed
		t.hits += st.Cache.Hits
		t.misses += st.Cache.Misses
		t.joins += st.Cache.Joins
		t.storeHits += st.Cache.StoreHits
		t.evictions += st.Cache.Evictions
		if c := st.Node.Cluster; c != nil {
			t.forwards += c.Forwards
			t.replicasSent += c.ReplicasSent
			t.steals += c.StealsRun
		}
	}
	return t, nil
}

func (a totals) sub(b totals) totals {
	return totals{
		engineRuns: a.engineRuns - b.engineRuns, shed: a.shed - b.shed,
		hits: a.hits - b.hits, misses: a.misses - b.misses, joins: a.joins - b.joins,
		storeHits: a.storeHits - b.storeHits, evictions: a.evictions - b.evictions,
		forwards: a.forwards - b.forwards, replicasSent: a.replicasSent - b.replicasSent, steals: a.steals - b.steals,
	}
}

func getJSON(ctx context.Context, hc *http.Client, url string, into any) error {
	raw, err := get(ctx, hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, into)
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(raw)))
	}
	return raw, nil
}
