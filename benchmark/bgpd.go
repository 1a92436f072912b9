package main

// bgpd_mix: a real bgpd child driven over loopback HTTP by a closed loop
// of clients that each wait for their reply and think for no time at all.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	bgp "bgpsim"
	"bgpsim/internal/obs"
	"bgpsim/internal/server"
)

const (
	// jobTimeout bounds one job from POST to the last result byte; a job
	// past it counts as failed.
	jobTimeout = 30 * time.Second
	// pollEvery is the pause between two status polls of one job.
	pollEvery = time.Millisecond
)

// daemon is a running bgpd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon boots binary on a fresh checkpoint directory (journal on,
// default workers) and returns once /readyz answers 200.
func startDaemon(ctx context.Context, binary, checkpointDir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.CommandContext(ctx, binary, "-addr", addr, "-checkpoint", checkpointDir)
	d.cmd.Stderr = &d.stderr
	d.cmd.WaitDelay = 5 * time.Second
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("bgpd not ready at %s: %s", addr, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to terminate, waits for it, and returns the CPU time
// and peak resident set of its whole life.
func (d *daemon) stop() (cpuS, rssMB float64) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	d.cmd.Wait() // a daemon stopped by a signal exits non-zero; the usage is still valid
	timer.Stop()
	return childUsage(d.cmd.ProcessState)
}

// childUsage reads a finished child's user+system CPU seconds and peak
// resident set in MB.
func childUsage(ps *os.ProcessState) (cpuS, rssMB float64) {
	if ps == nil {
		return 0, 0
	}
	cpuS = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	return cpuS, rssMB
}

// scrape fetches /metrics and returns its counters.
func scrape(base string) (map[string]uint64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	if snap.Counters == nil {
		snap.Counters = map[string]uint64{}
	}
	return snap.Counters, nil
}

// jobResult is one job as its client saw it.
type jobResult struct {
	Done      bool // the slot was executed
	Kind      jobKind
	Config    int
	AcceptMS  float64 // POST until the 202/200 body was read
	TotalMS   float64 // POST until the last byte of the node-0 dump
	CacheHits int
	Polls     int
	DumpSum   [sha256.Size]byte
	Err       string // non-empty when the job failed
}

// loadgen walks a sequence with closed-loop clients.
type loadgen struct {
	ctx     context.Context
	base    string
	seq     *sequence
	clients int
	// The run ends at the deadline, or after maxSlots slots, whichever
	// comes first.
	deadline time.Time
	maxSlots int

	next  atomic.Int64
	limit atomic.Int64    // first slot not to execute
	meet  []chan struct{} // meet[i] joins pair slots i and i+1
	res   []jobResult     // res[i] is written by the client that drew slot i
}

// run executes the sequence and returns the per-slot results and the wall
// time from the first POST to the last result byte.
func (g *loadgen) run() ([]jobResult, time.Duration) {
	if g.maxSlots <= 0 || g.maxSlots > len(g.seq.Slots) {
		g.maxSlots = len(g.seq.Slots)
	}
	// Never end between the two halves of a pair.
	if g.maxSlots < len(g.seq.Slots) && g.seq.Slots[g.maxSlots].Kind == kindPairB {
		g.maxSlots++
	}
	g.limit.Store(int64(g.maxSlots))
	g.res = make([]jobResult, g.maxSlots)
	g.meet = make([]chan struct{}, g.maxSlots)
	for i := range g.meet {
		if g.seq.Slots[i].Kind == kindPairA {
			g.meet[i] = make(chan struct{})
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < g.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.client()
		}()
	}
	wg.Wait() // a client returns as soon as its last job has completed
	return g.res, time.Since(start)
}

// client draws slots until the run ends. The decision to end is shared and
// never splits a pair: whoever first draws a slot after the deadline sets
// the limit, past its own slot when that slot is the second half of a pair
// whose first half is already waiting.
func (g *loadgen) client() {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	for {
		i := int(g.next.Add(1)) - 1
		if i >= g.maxSlots {
			return
		}
		s := g.seq.Slots[i]
		if g.ctx.Err() != nil || (!g.deadline.IsZero() && time.Now().After(g.deadline)) {
			stop := i
			if s.Kind == kindPairB {
				stop = i + 1
			}
			for {
				cur := g.limit.Load()
				if int64(stop) >= cur || g.limit.CompareAndSwap(cur, int64(stop)) {
					break
				}
			}
		}
		if int64(i) >= g.limit.Load() {
			return
		}
		if g.clients > 1 {
			switch s.Kind {
			case kindPairA:
				select {
				case g.meet[i] <- struct{}{}:
				case <-g.ctx.Done():
				}
			case kindPairB:
				select {
				case <-g.meet[i-1]:
				case <-g.ctx.Done():
				}
			}
		}
		r := g.do(hc, s)
		r.Done, r.Kind, r.Config = true, s.Kind, s.Config
		g.res[i] = r
	}
}

// do runs one job: POST, poll the status every pollEvery until done, fetch
// the node-0 dump of run 0.
func (g *loadgen) do(hc *http.Client, s slot) (r jobResult) {
	ctx, cancel := context.WithTimeout(g.ctx, jobTimeout)
	defer cancel()
	fail := func(format string, args ...any) jobResult {
		r.Err = fmt.Sprintf(format, args...)
		return r
	}
	spec := g.seq.body(s)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	code, body, err := roundTrip(hc, req)
	r.AcceptMS = msSince(start)
	if err != nil {
		return fail("submit: %v", err)
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return fail("submit: HTTP %d: %s", code, body)
	}
	if (code == http.StatusOK) != (s.Kind == kindResubmit) {
		return fail("submit: HTTP %d for a %v job", code, s.Kind)
	}
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("submit: %v", err)
	}
	for st.State != server.StateDone {
		if st.State == server.StateFailed {
			return fail("job %s failed: %s", st.ID, st.Error)
		}
		select {
		case <-ctx.Done():
			return fail("job %s: %v", st.ID, ctx.Err())
		case <-time.After(pollEvery):
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/jobs/"+st.ID, nil)
		if err != nil {
			return fail("%v", err)
		}
		code, body, err := roundTrip(hc, req)
		r.Polls++
		if err != nil || code != http.StatusOK {
			return fail("status: HTTP %d: %v %s", code, err, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fail("status: %v", err)
		}
	}
	r.CacheHits = st.CacheHits
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/jobs/"+st.ID+"/result?run=0&node=0", nil)
	if err != nil {
		return fail("%v", err)
	}
	code, body, err = roundTrip(hc, req)
	r.TotalMS = msSince(start)
	if err != nil || code != http.StatusOK {
		return fail("result: HTTP %d: %v %s", code, err, body)
	}
	r.DumpSum = sha256.Sum256(body)
	return r
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// roundTrip sends req and reads the whole reply.
func roundTrip(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// numClients is the closed loop's width: two callers, or one on a
// single-core host, so the generator never needs more cores than it has.
func numClients() int { return min(runtime.NumCPU(), 2) }

// daemonRun is one window of load against a fresh bgpd child.
type daemonRun struct {
	Results       []jobResult
	WallS         float64
	CPUS, RSSMB   float64
	Before, After map[string]uint64 // /metrics counters around the window
}

// driveDaemon boots a fresh bgpd on dir, walks seq against it until the
// deadline or maxSlots, and stops it.
func driveDaemon(ctx context.Context, binary, dir string, seq *sequence, seconds float64, maxSlots int) (*daemonRun, error) {
	d, err := startDaemon(ctx, binary, dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	run := &daemonRun{}
	if run.Before, err = scrape(d.base); err != nil {
		return nil, err
	}
	g := &loadgen{ctx: ctx, base: d.base, seq: seq, clients: numClients(), maxSlots: maxSlots}
	if seconds > 0 {
		g.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	}
	var wall time.Duration
	run.Results, wall = g.run()
	run.WallS = wall.Seconds()
	if run.After, err = scrape(d.base); err != nil {
		return nil, fmt.Errorf("%w (bgpd stderr: %s)", err, d.stderr.String())
	}
	stopped = true
	run.CPUS, run.RSSMB = d.stop()
	return run, nil
}

// timedHandler wraps a handler with the traced pass's timing middleware:
// every request becomes a span named after its route — submit, status or
// result.
type timedHandler struct {
	next http.Handler
	log  spanLog
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.next.ServeHTTP(w, r)
	route := "server.http_status_us"
	switch {
	case r.Method == http.MethodPost:
		route = "server.http_submit_us"
	case strings.HasSuffix(r.URL.Path, "/result"):
		route = "server.http_result_us"
	}
	t.log.add(route, "server", start, time.Now(), -1, 0)
}

// driveInProcess walks the first maxSlots slots of seq against an
// in-process server.New behind httptest, with the handler wrapped by the
// timing middleware when th is non-nil. It returns the wall time.
func driveInProcess(ctx context.Context, dir string, seq *sequence, maxSlots int, th *timedHandler) (float64, []jobResult, error) {
	srv, err := server.New(server.Config{CheckpointDir: dir})
	if err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	if th != nil {
		th.next = h
		h = th
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	g := &loadgen{ctx: ctx, base: ts.URL, seq: seq, clients: numClients(), maxSlots: maxSlots}
	results, wall := g.run()
	return wall.Seconds(), results, nil
}

// checkJobs applies bgpd_mix's correctness gate to a window's results and
// returns attempted and failed job counts with a line per failure. A job
// fails when its exchange failed, or when its dump differs from the first
// dump returned for the same configuration; and a seeded 2 % sample of the
// configurations is re-simulated here with bgp.Run and compared too.
func checkJobs(seq *sequence, seed int64, results []jobResult) (attempted, failed int, problems []string) {
	first := map[int][sha256.Size]byte{}
	bad := func(i int, format string, args ...any) {
		failed++
		problems = append(problems, fmt.Sprintf("job %d (%v, %+v): %s", i,
			results[i].Kind, seq.Configs[results[i].Config], fmt.Sprintf(format, args...)))
	}
	for i, r := range results {
		if !r.Done {
			continue
		}
		attempted++
		switch want, seen := first[r.Config]; {
		case r.Err != "":
			bad(i, "%s", r.Err)
		case !seen:
			first[r.Config] = r.DumpSum
			if !sampled(seed, r.Config) {
				continue
			}
			sum, err := directDump(seq, seq.Slots[i])
			if err != nil {
				bad(i, "direct bgp.Run: %v", err)
			} else if sum != r.DumpSum {
				bad(i, "dump differs from a direct bgp.Run")
			}
		case want != r.DumpSum:
			bad(i, "dump differs from the first response for this configuration")
		}
	}
	return attempted, failed, problems
}

// sampled picks the configurations checked against a direct bgp.Run: one
// in fifty, by a hash of the seed and the configuration's index, plus the
// first, so that every run checks at least one.
func sampled(seed int64, config int) bool {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d", seed, config)
	return config == 0 || h.Sum32()%50 == 0
}

// directDump simulates a slot's configuration in this process and hashes
// the node-0 dump, the bytes bgpd must have served.
func directDump(seq *sequence, s slot) (sum [sha256.Size]byte, err error) {
	_, cfgs, err := server.DecodeJobSpec(bytes.NewReader(seq.body(s)))
	if err != nil {
		return sum, err
	}
	res, err := bgp.Run(cfgs[0])
	if err != nil {
		return sum, err
	}
	h := sha256.New()
	if err := res.Dumps[0].Encode(h); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// daemonCounts turns the change in bgpd's /metrics counters over a window
// into the per-layer sums the simulation workloads get from the Observer.
func daemonCounts(before, after map[string]uint64) counts {
	d := func(name string) uint64 { return after[name] - before[name] }
	return counts{
		Runs:            d(obs.MetricRuns),
		CompileNS:       d(obs.MetricPhaseNSPrefix + "compile"),
		RunNS:           d(obs.MetricPhaseNSPrefix + "run"),
		PostprocNS:      d(obs.MetricPhaseNSPrefix + "postproc"),
		ExecCycles:      d(obs.MetricExecCycles),
		RouteClosedForm: d(obs.MetricRoutePrefix + "closed_form"),
		RouteCoalesced:  d(obs.MetricRoutePrefix + "coalesced"),
		RouteTracked:    d(obs.MetricRoutePrefix + "tracked"),
		RouteInterp:     d(obs.MetricRoutePrefix + "interp"),
		L1Accesses:      d("cache.l1.hits") + d("cache.l1.misses"),
		L3Accesses:      d("cache.l3.hits") + d("cache.l3.misses"),
		DDRLines:        d("ddr.read_lines") + d("ddr.write_lines"),
		FFDispatches:    d(obs.MetricFFPrefix + "dispatches"),
		FFCycles:        d(obs.MetricFFPrefix + "cycles"),
		MemoHits:        d(obs.MetricEpochMemoPrefix + "hits"),
		MemoMisses:      d(obs.MetricEpochMemoPrefix + "misses"),
		MemoStores:      d(obs.MetricEpochMemoPrefix + "stores"),
		ProgHits:        d(obs.MetricProgCachePrefix + "hit"),
		ProgMisses:      d(obs.MetricProgCachePrefix + "miss"),
	}
}

// daemonLayers derives bgpd_mix's server.* metrics from one window, and
// checks the cache counters against the sequence's construction.
func daemonLayers(run *daemonRun, vals map[string]float64) (problems []string) {
	var fresh, store, coalesced, dedupe, accept []float64
	var jobs, polls int
	var kinds [5]int
	for _, r := range run.Results {
		if !r.Done || r.Err != "" {
			continue
		}
		jobs++
		polls += r.Polls
		kinds[r.Kind]++
		accept = append(accept, r.AcceptMS)
		switch {
		case r.Kind == kindRepeat:
			store = append(store, r.TotalMS)
		case r.Kind == kindResubmit:
			dedupe = append(dedupe, r.TotalMS)
		case r.CacheHits == 0:
			fresh = append(fresh, r.TotalMS)
		case r.Kind != kindFresh:
			coalesced = append(coalesced, r.TotalMS)
		}
	}
	n := float64(jobs)
	if n == 0 || run.WallS == 0 {
		return []string{"no job completed"}
	}
	d := func(name string) float64 { return float64(run.After[name] - run.Before[name]) }
	vals["server.jobs_per_s"] = n / run.WallS
	vals["server.job_fresh_p50_ms"] = quantile(fresh, 0.50)
	vals["server.job_fresh_p90_ms"] = quantile(fresh, 0.90)
	vals["server.job_fresh_p99_ms"] = quantile(fresh, 0.99)
	vals["server.job_store_p50_ms"] = quantile(store, 0.50)
	vals["server.job_store_p90_ms"] = quantile(store, 0.90)
	vals["server.job_store_p99_ms"] = quantile(store, 0.99)
	vals["server.job_coalesced_p50_ms"] = median(coalesced)
	vals["server.job_dedupe_p50_ms"] = median(dedupe)
	vals["server.accept_p50_ms"] = quantile(accept, 0.50)
	vals["server.accept_p90_ms"] = quantile(accept, 0.90)
	vals["server.accept_p99_ms"] = quantile(accept, 0.99)
	vals["server.polls_per_job"] = float64(polls) / n
	vals["server.journal_records_per_job"] = d(server.MetricJournalRecords) / n
	vals["server.cache_miss"] = d(server.MetricCacheMiss)
	vals["server.cache_hit_store"] = d(server.MetricCacheHitStore)
	vals["server.cache_hit_inflight"] = d(server.MetricCacheHitInflight)
	vals["server.jobs_deduped"] = d(server.MetricJobsDeduped)
	pairs := float64(kinds[kindPairB])
	if pairs > 0 && numClients() > 1 {
		vals["server.coalesce_ratio"] = d(server.MetricCacheHitInflight) / pairs
	}
	var freshMS float64
	for _, ms := range fresh {
		freshMS += ms
	}
	if freshMS > 0 {
		vals["server.sim_share_of_fresh"] = d(obs.MetricPhaseNSPrefix+"run") / 1e6 / freshMS
	}

	// miss = fresh jobs + pair rendezvous; store + in-flight hits = repeat
	// jobs + pair rendezvous; deduped = resubmit jobs.
	wantMiss := float64(kinds[kindFresh] + kinds[kindPairA])
	wantHit := float64(kinds[kindRepeat] + kinds[kindPairB])
	if got := d(server.MetricCacheMiss); got != wantMiss {
		problems = append(problems, fmt.Sprintf("server.cache.miss = %v, the sequence implies %v", got, wantMiss))
	}
	if got := d(server.MetricCacheHit); got != wantHit {
		problems = append(problems, fmt.Sprintf("server.cache.hit = %v, the sequence implies %v", got, wantHit))
	}
	if got, want := d(server.MetricJobsDeduped), float64(kinds[kindResubmit]); got != want {
		problems = append(problems, fmt.Sprintf("server.jobs.deduped = %v, the sequence implies %v", got, want))
	}
	return problems
}

// fsType names the filesystem holding dir; fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// buildDaemon compiles cmd/bgpd into dir and returns the binary's path.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	binary, err := filepath.Abs(filepath.Join(dir, "bgpd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binary, "./cmd/bgpd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bgpd: %w: %s", err, out)
	}
	return binary, nil
}
