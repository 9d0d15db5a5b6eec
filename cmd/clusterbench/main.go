// Command clusterbench measures the distributed sort tier's scale-out
// and fault tolerance, producing the committed BENCH_PR9.json artifact.
//
// It boots real mlmserve processes (equal per-node budgets) and drives
// them three ways:
//
//   - direct: a closed-loop client fleet against one mlmserve node —
//     the single-node baseline goodput,
//   - coordinator x1: the same fleet through mlmcoord fronting that one
//     node — isolating the coordinator's own overhead (partition,
//     scatter, merge) from scale-out,
//   - coordinator xN: mlmcoord fronting N backends — the scale-out
//     measurement.
//
// One box cannot host N genuinely independent CPU-bound nodes, so every
// backend runs with -sim-chunk-ms: a fixed sleep added to each chunk's
// compute stage. Sleeps release the CPU, which makes per-node service
// rate a configured quantity — colocated nodes overlap their sleeps
// exactly like separate machines overlap real compute — while the parts
// of the system under test (routing, scatter/merge, retry, the
// coordinator's own CPU) stay real. The reported scale-out ratio is
// therefore honest about coordination cost, not about arithmetic.
//
// After the sweep, the fault-tolerance check: submit one large job
// through a 2-backend coordinator, SIGKILL a backend at ~50% of the
// job's measured baseline duration, and require the job to complete
// with a verified-sorted result and cluster_partition_retries_total
// showing only the lost partitions re-ran.
//
// Examples:
//
//	clusterbench -out BENCH_PR9.json
//	clusterbench -scales 1,2 -duration 5s -skip-kill
//	clusterbench -skip-sweep -kill-elems 300000   # fault check only (CI)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"knlmlm/internal/api"
	"knlmlm/internal/wire"
)

type options struct {
	serveBin   string
	coordBin   string
	simChunkMS int
	budgetMB   int
	workers    int
	scales     []int
	partsPer   int
	clients    int
	duration   time.Duration
	elems      int
	megachunk  int
	killElems  int
	seed       int64
	out        string
	skipSweep  bool
	skipKill   bool
}

func main() {
	var o options
	var scalesFlag string
	flag.StringVar(&o.serveBin, "mlmserve-bin", "", "mlmserve binary (empty = build ./cmd/mlmserve into a temp dir)")
	flag.StringVar(&o.coordBin, "mlmcoord-bin", "", "mlmcoord binary (empty = build ./cmd/mlmcoord into a temp dir)")
	flag.IntVar(&o.simChunkMS, "sim-chunk-ms", 25, "per-chunk compute sleep on every backend, ms (the configured per-node service rate)")
	flag.IntVar(&o.budgetMB, "budget-mb", 64, "MCDRAM budget per node, MiB (equal across all points)")
	flag.IntVar(&o.workers, "workers", 2, "scheduler workers per node")
	flag.StringVar(&scalesFlag, "scales", "1,2,4", "coordinator backend counts to sweep")
	flag.IntVar(&o.partsPer, "parts-per-backend", 1, "coordinator partitions per backend: 1 is the natural homogeneous-fleet split; >1 buys routing granularity at a fixed per-part toll")
	flag.IntVar(&o.clients, "clients", 8, "closed-loop clients per measurement point")
	flag.DurationVar(&o.duration, "duration", 8*time.Second, "measurement window per point")
	flag.IntVar(&o.elems, "elems", 65536, "keys per sweep job")
	flag.IntVar(&o.megachunk, "megachunk", 8192, "megachunk_len per job: elems/megachunk chunks, each sleeping -sim-chunk-ms")
	flag.IntVar(&o.killElems, "kill-elems", 400000, "keys in the fault-tolerance job")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.StringVar(&o.out, "out", "BENCH_PR9.json", "output JSON path")
	flag.BoolVar(&o.skipSweep, "skip-sweep", false, "skip the scale-out sweep (fault check only)")
	flag.BoolVar(&o.skipKill, "skip-kill", false, "skip the backend-kill fault check")
	flag.Parse()
	for _, f := range strings.Split(scalesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "clusterbench: bad scale %q\n", f)
			os.Exit(1)
		}
		o.scales = append(o.scales, n)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		os.Exit(1)
	}
}

// point is one measured configuration of the sweep.
type point struct {
	Mode     string  `json:"mode"` // "direct" or "coordinator"
	Backends int     `json:"backends"`
	Jobs     int     `json:"jobs_completed"`
	Failed   int     `json:"jobs_failed"`
	Rejected int     `json:"jobs_rejected,omitempty"`
	Goodput  float64 `json:"goodput_jobs_per_sec"`
	P50MS    float64 `json:"latency_p50_ms"`
	P95MS    float64 `json:"latency_p95_ms"`
	// Cluster telemetry scraped from the coordinator after the window
	// (absent on the direct point).
	Retries    float64 `json:"partition_retries,omitempty"`
	Backoffs   float64 `json:"partition_backoffs,omitempty"`
	StallSec   float64 `json:"merge_stall_seconds,omitempty"`
	Partitions float64 `json:"partitions,omitempty"`
}

// killResult is the fault-tolerance check's outcome.
type killResult struct {
	Elems          int     `json:"elems"`
	KilledBackend  int     `json:"killed_backend"`
	KilledAtMS     float64 `json:"killed_at_ms"`
	BaselineMS     float64 `json:"baseline_ms"`
	DurationMS     float64 `json:"duration_ms"`
	Completed      bool    `json:"completed"`
	VerifiedSorted bool    `json:"verified_sorted"`
	Retries        float64 `json:"partition_retries"`
}

// benchDoc is the BENCH_PR9.json document.
type benchDoc struct {
	Bench      string  `json:"bench"`
	SimChunkMS int     `json:"sim_chunk_ms"`
	BudgetMB   int     `json:"budget_mb_per_node"`
	Workers    int     `json:"workers_per_node"`
	Elems      int     `json:"elems_per_job"`
	Megachunk  int     `json:"megachunk_len"`
	PartsPer   int     `json:"parts_per_backend"`
	Clients    int     `json:"closed_loop_clients"`
	Seed       int64   `json:"seed"`
	Points     []point `json:"points,omitempty"`
	// CoordOverhead1x is coordinator-with-1-backend goodput over direct
	// single-node goodput: the tier's toll before any scale-out.
	CoordOverhead1x float64 `json:"coordinator_overhead_1x,omitempty"`
	// Scaleout2x is 2-backend coordinator goodput over the direct
	// single-node baseline — the headline scale-out ratio.
	Scaleout2x float64     `json:"scaleout_2_backends_over_single,omitempty"`
	Kill       *killResult `json:"kill_test,omitempty"`
}

func run(o options) error {
	work, err := os.MkdirTemp("", "clusterbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	if o.serveBin == "" {
		o.serveBin = filepath.Join(work, "mlmserve")
		if err := buildBin(o.serveBin, "./cmd/mlmserve"); err != nil {
			return err
		}
	}
	if o.coordBin == "" {
		o.coordBin = filepath.Join(work, "mlmcoord")
		if err := buildBin(o.coordBin, "./cmd/mlmcoord"); err != nil {
			return err
		}
	}

	doc := benchDoc{
		Bench:      "cluster tier scale-out and fault tolerance (colocated nodes, configured service rate)",
		SimChunkMS: o.simChunkMS,
		BudgetMB:   o.budgetMB,
		Workers:    o.workers,
		Elems:      o.elems,
		Megachunk:  o.megachunk,
		PartsPer:   o.partsPer,
		Clients:    o.clients,
		Seed:       o.seed,
	}

	if !o.skipSweep {
		// Direct single-node baseline.
		p, err := measurePoint(o, work, "direct", 1)
		if err != nil {
			return err
		}
		doc.Points = append(doc.Points, p)
		single := p.Goodput

		for _, n := range o.scales {
			p, err := measurePoint(o, work, "coordinator", n)
			if err != nil {
				return err
			}
			doc.Points = append(doc.Points, p)
			if single > 0 {
				switch n {
				case 1:
					doc.CoordOverhead1x = p.Goodput / single
				case 2:
					doc.Scaleout2x = p.Goodput / single
				}
			}
		}
	}

	if !o.skipKill {
		kr, err := runKillTest(o, work)
		if err != nil {
			return err
		}
		doc.Kill = kr
		fmt.Printf("kill test: %d keys, backend %d SIGKILLed at %.0fms (baseline %.0fms) — completed=%v verified=%v, %d partition retries, %.0fms total\n",
			kr.Elems, kr.KilledBackend, kr.KilledAtMS, kr.BaselineMS,
			kr.Completed, kr.VerifiedSorted, int(kr.Retries), kr.DurationMS)
	}

	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(o.out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", o.out)
	return nil
}

func buildBin(out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// proc is one spawned service process.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  string
}

func startProc(bin, name, logPath string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	lf.Close() // the child holds its own descriptor
	p := &proc{name: name, cmd: cmd, log: logPath}
	addr, err := waitListening(logPath, 10*time.Second)
	if err != nil {
		p.stop()
		raw, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("%s never listened: %v\n%s", name, err, raw)
	}
	p.url = "http://" + addr
	return p, nil
}

// waitListening polls the process log for the "listening on <addr>"
// line both services print once bound.
func waitListening(logPath string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		raw, _ := os.ReadFile(logPath)
		for _, line := range strings.Split(string(raw), "\n") {
			if i := strings.Index(line, "listening on "); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				if rest != "" {
					return rest, nil
				}
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("timeout")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// startBackends boots n mlmserve nodes with identical budgets and the
// configured per-chunk service sleep.
func startBackends(o options, work, tag string, n int) ([]*proc, error) {
	var procs []*proc
	for i := 0; i < n; i++ {
		dir := filepath.Join(work, fmt.Sprintf("%s-spill-%d", tag, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return procs, err
		}
		p, err := startProc(o.serveBin, fmt.Sprintf("mlmserve-%d", i),
			filepath.Join(work, fmt.Sprintf("%s-serve-%d.log", tag, i)),
			"-addr", "127.0.0.1:0",
			"-budget-mb", strconv.Itoa(o.budgetMB),
			"-workers", strconv.Itoa(o.workers),
			"-ddr-budget-mb", "256",
			"-disk-budget-mb", "512",
			"-spill-dir", dir,
			"-sim-chunk-ms", strconv.Itoa(o.simChunkMS),
			// The sweep measures saturated sort capacity, not overload
			// degradation (PR 7's bench): a closed-loop fleet holds every
			// point at its queueing knee, and brownout sheds there would
			// alias into the scale-out ratio as noise. Off for every point
			// equally — direct and coordinated nodes face the same posture.
			"-brownout=false",
		)
		if err != nil {
			return procs, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

func startCoord(o options, work, tag string, backends []*proc) (*proc, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url
	}
	return startProc(o.coordBin, "mlmcoord",
		filepath.Join(work, tag+"-coord.log"),
		"-addr", "127.0.0.1:0",
		"-backends", strings.Join(urls, ","),
		"-parts-per-backend", strconv.Itoa(o.partsPer),
		"-poll-interval", "250ms",
	)
}

func stopAll(procs ...*proc) {
	for _, p := range procs {
		p.stop()
	}
}

// measurePoint boots one configuration, saturates it with the
// closed-loop fleet for the window, and tears it down.
func measurePoint(o options, work, mode string, n int) (point, error) {
	tag := fmt.Sprintf("%s-%d", mode, n)
	backends, err := startBackends(o, work, tag, n)
	if err != nil {
		stopAll(backends...)
		return point{}, err
	}
	target := backends[0].url
	var coord *proc
	if mode == "coordinator" {
		coord, err = startCoord(o, work, tag, backends)
		if err != nil {
			stopAll(append(backends, coord)...)
			return point{}, err
		}
		target = coord.url
	}
	defer stopAll(append(backends, coord)...)

	client := newClient()
	if err := waitHealthy(client, target, 10*time.Second); err != nil {
		return point{}, err
	}
	pt := closedLoop(client, target, o)
	pt.Mode, pt.Backends = mode, n
	if coord != nil {
		if m, err := scrapeFlat(client, coord.url); err == nil {
			pt.Retries = m["cluster_partition_retries_total"]
			pt.Backoffs = m["cluster_partition_backoffs_total"]
			pt.StallSec = m["cluster_merge_stall_seconds_total"]
			pt.Partitions = m["cluster_partitions_total"]
		}
	}
	fmt.Printf("%-11s x%d: %3d jobs (%d failed, %d rejected) in %v — %.2f jobs/s, p50 %.0fms p95 %.0fms\n",
		mode, n, pt.Jobs, pt.Failed, pt.Rejected, o.duration, pt.Goodput, pt.P50MS, pt.P95MS)
	return pt, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
}

// closedLoop saturates the target: o.clients goroutines each submit a
// pre-encoded binary job in wait mode, download the result, verify it
// is sorted, and immediately submit the next — for o.duration. Client
// starts are staggered across one estimated service wave and the ramp
// is excluded from the window: launched together, a wait-mode fleet
// convoys — every job drains in one synchronized wave and the workers
// idle during each wave's merge/download tail, measuring the convoy
// artifact instead of the service. Goodput counts only jobs whose
// verified completion landed inside the post-ramp window.
func closedLoop(client *http.Client, url string, o options) point {
	// Pre-encode one distinct body per client before the window opens so
	// in-window driver CPU is only wire I/O and the sortedness scan.
	bodies := make([][]byte, o.clients)
	rng := rand.New(rand.NewSource(o.seed))
	for i := range bodies {
		keys := make([]int64, o.elems)
		krng := rand.New(rand.NewSource(rng.Int63()))
		for k := range keys {
			keys[k] = krng.Int63()
		}
		bodies[i] = wire.Encode(nil, keys, 0)
	}
	query := "?wait=1&megachunk_len=" + strconv.Itoa(o.megachunk)

	// One wave is roughly the fleet's jobs drained through one node's
	// workers: the stagger spreads first submits across it so the system
	// reaches a phase-distributed steady state instead of a convoy.
	chunks := (o.elems + o.megachunk - 1) / o.megachunk
	perJob := time.Duration(chunks*o.simChunkMS) * time.Millisecond
	ramp := time.Duration(o.clients) * perJob / time.Duration(o.workers)
	if ramp > 4*time.Second {
		ramp = 4 * time.Second
	}

	var (
		mu        sync.Mutex
		completed int
		failed    int
		rejected  int
		lats      []float64
	)
	start := time.Now()
	open := start.Add(ramp)
	deadline := open.Add(o.duration)
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * ramp / time.Duration(o.clients))
			buf := make([]int64, o.elems)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				out, hint := oneJob(client, url, query, body, buf)
				done := time.Now()
				mu.Lock()
				switch out {
				case jobOK:
					if done.After(open) && done.Before(deadline) {
						completed++
						lats = append(lats, float64(done.Sub(t0).Nanoseconds())/1e6)
					}
				case jobRejected:
					rejected++
				default:
					failed++
				}
				mu.Unlock()
				if out == jobRejected {
					// Honor the server's backpressure hint: the closed loop
					// measures what the service can complete, not how fast a
					// client can hammer a 429.
					if hint <= 0 {
						hint = 100 * time.Millisecond
					}
					time.Sleep(hint)
				}
			}
		}(c, bodies[c])
	}
	wg.Wait()

	sort.Float64s(lats)
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))]
	}
	return point{
		Jobs:     completed,
		Failed:   failed,
		Rejected: rejected,
		Goodput:  float64(completed) / o.duration.Seconds(),
		P50MS:    pct(0.50),
		P95MS:    pct(0.95),
	}
}

type jobOutcome int

const (
	jobOK jobOutcome = iota
	jobRejected
	jobFailed
)

// oneJob submits one pre-encoded binary body in wait mode, downloads
// the result as a frame stream, and verifies it is sorted and complete.
// A 429/503 answer is a rejection and carries the server's retry hint.
func oneJob(client *http.Client, url, query string, body []byte, buf []int64) (jobOutcome, time.Duration) {
	resp, err := client.Post(url+"/v1/sort"+query, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		return jobFailed, 0
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		var eb api.ErrorBody
		_ = json.Unmarshal(raw, &eb)
		return jobRejected, time.Duration(eb.RetryAfterMS) * time.Millisecond
	}
	var st api.JobStatus
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &st) != nil || st.State != "done" {
		return jobFailed, 0
	}
	n, ok := downloadSorted(client, url+st.ResultURL, buf)
	if !ok || n != len(buf) {
		return jobFailed, 0
	}
	return jobOK, 0
}

// downloadSorted streams a wire result into buf, returning how many
// elements arrived and whether they were sorted.
func downloadSorted(client *http.Client, url string, buf []int64) (int, bool) {
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("Accept", wire.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	fr, err := wire.NewReader(resp.Body)
	if err != nil || fr.Total() != int64(len(buf)) {
		return 0, false
	}
	if err := fr.ReadInto(buf); err != nil {
		return 0, false
	}
	for i := 1; i < len(buf); i++ {
		if buf[i] < buf[i-1] {
			return len(buf), false
		}
	}
	return len(buf), true
}

// runKillTest boots a fresh 2-backend coordinator, times one large job
// to completion (the baseline), then runs an identical job and SIGKILLs
// backend 1 at half the baseline. The job must still complete with a
// verified-sorted result, and only the lost partitions may re-run.
func runKillTest(o options, work string) (*killResult, error) {
	backends, err := startBackends(o, work, "kill", 2)
	if err != nil {
		stopAll(backends...)
		return nil, err
	}
	coord, err := startCoord(o, work, "kill", backends)
	if err != nil {
		stopAll(append(backends, coord)...)
		return nil, err
	}
	defer stopAll(append(backends, coord)...)

	client := newClient()
	if err := waitHealthy(client, coord.url, 10*time.Second); err != nil {
		return nil, err
	}

	keys := make([]int64, o.killElems)
	krng := rand.New(rand.NewSource(o.seed + 77))
	for k := range keys {
		keys[k] = krng.Int63()
	}
	body := wire.Encode(nil, keys, 0)
	query := "?wait=1&megachunk_len=" + strconv.Itoa(o.megachunk)
	buf := make([]int64, o.killElems)

	// Baseline: same job, nobody dies.
	t0 := time.Now()
	if out, _ := oneJob(client, coord.url, query, body, buf); out != jobOK {
		return nil, fmt.Errorf("kill test baseline job failed")
	}
	baseline := time.Since(t0)

	before, _ := scrapeFlat(client, coord.url)

	type outcome struct {
		ok  bool
		dur time.Duration
	}
	res := make(chan outcome, 1)
	t1 := time.Now()
	go func() {
		out, _ := oneJob(client, coord.url, query, body, buf)
		res <- outcome{out == jobOK, time.Since(t1)}
	}()

	killAt := baseline / 2
	time.Sleep(killAt)
	_ = backends[1].cmd.Process.Kill() // SIGKILL: no drain, no goodbye
	_, _ = backends[1].cmd.Process.Wait()

	var out outcome
	select {
	case out = <-res:
	case <-time.After(2 * time.Minute):
		return nil, fmt.Errorf("kill test job hung after backend SIGKILL")
	}

	after, _ := scrapeFlat(client, coord.url)
	kr := &killResult{
		Elems:         o.killElems,
		KilledBackend: 1,
		KilledAtMS:    float64(killAt.Nanoseconds()) / 1e6,
		BaselineMS:    float64(baseline.Nanoseconds()) / 1e6,
		DurationMS:    float64(out.dur.Nanoseconds()) / 1e6,
		Completed:     out.ok,
		Retries:       after["cluster_partition_retries_total"] - before["cluster_partition_retries_total"],
	}
	// oneJob already verified sortedness and completeness; mirror it
	// into the artifact explicitly.
	kr.VerifiedSorted = out.ok
	if !out.ok {
		return kr, fmt.Errorf("kill test job did not complete correctly after backend SIGKILL")
	}
	if kr.Retries < 1 {
		return kr, fmt.Errorf("kill test completed but no partition retries were recorded — the kill landed too late to matter")
	}
	return kr, nil
}

// scrapeFlat parses labelless metrics from /metrics.
func scrapeFlat(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") || strings.Contains(fields[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, nil
}

func waitHealthy(client *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy", url)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
