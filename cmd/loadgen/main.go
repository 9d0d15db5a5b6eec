// Command loadgen is a load generator for the sort service
// (cmd/mlmserve). It sweeps a list of offered arrival rates; at each
// level it issues POST /v1/sort requests on a fixed arrival clock —
// independent of completions, so queueing delay shows up as latency
// rather than throttled offered load — and records, per level:
//
//   - goodput: verified-sorted jobs completed per second,
//   - latency percentiles (p50/p95/p99) of submit→terminal,
//   - typed rejections (HTTP 429 backpressure), server-side sheds
//     (accepted jobs evicted by overload control), and failures.
//
// Each arrival is handled by a closed-loop retry client: a rejected
// submission backs off (honoring the server's model-derived Retry-After
// hint, with +/-25% jitter so retries never synchronize) and retries up
// to -retries times, spending from a shared per-level -retry-budget; a
// run of -cb-threshold consecutive 429/503 answers opens a circuit
// breaker for -cb-cooldown, keeping a browned-out server from being
// hammered. With -deadline-ms each job carries a start deadline, which
// arms the server's predicted-late admission gate and in-queue shedding.
//
// With -spill-n set (and the server started with DDR and disk budgets),
// the sweep is followed by a spill phase: -spill-jobs over-DDR jobs are
// submitted one at a time, each result is downloaded as a chunked stream
// and verified, and the phase records end-to-end latency, download
// throughput, and the server's spill_*/sched_spill_* telemetry (run
// counts, spilled bytes, measured disk rates) scraped from /metrics.
//
// At the end of the sweep, the server's job_phase_seconds{phase=...}
// histograms are scraped from /metrics and embedded as a per-phase
// breakdown (server_phase_breakdown), so the artifact attributes the
// goodput knee to a phase — queue wait vs lease wait vs pipeline run —
// rather than just reporting it.
//
// -wire selects the request/result encoding: "json" (default), "binary"
// (the application/x-mlm-keys frame stream of internal/wire — submits
// carry frame-stream bodies with options on the query string, downloads
// send Accept: application/x-mlm-keys), or "both", which runs the whole
// sweep once per encoding and reports the per-mode results side by side
// plus the binary-over-JSON download speedup.
//
// -key-type selects the key representation: "i64" (default), "f64"
// (float64 keys as raw IEEE-754 bit cells, verified against the
// service's total order), or "rec" (key+payload records, two cells
// each; sizes stay in cells and are rounded to whole records). Typed
// keys exist only on the binary wire, so f64/rec require -wire binary.
//
// The target may be a single mlmserve node or an mlmcoord cluster
// coordinator — the two speak the same protocol, and loadgen tells them
// apart by the "backends" fleet view in the /healthz body. Against a
// coordinator the same flags work unchanged; the spill phase drops its
// spilled-flag requirement (the coordinator's big-job path is the
// scatter/merge tier, not a local disk spill), and the sweep document
// gains a "cluster" block with the coordinator's routing and retry
// telemetry (cluster_* families) plus per-backend routed bytes.
//
// The sweep is written as JSON (default BENCH_PR8.json), the committed
// artifact EXPERIMENTS.md documents.
//
// Examples:
//
//	loadgen -url http://127.0.0.1:8080 -rates 25,50,100,200 -duration 3s
//	loadgen -url http://127.0.0.1:8080 -quick -out /dev/stdout
//	loadgen -url http://127.0.0.1:8080 -rates 25,50 -spill-n 200000 -spill-jobs 5
//	loadgen -url http://127.0.0.1:8080 -rates 50,100,200 -deadline-ms 2000 -retries 3
//	loadgen -url http://127.0.0.1:8080 -rates 50 -spill-n 200000 -wire both
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"knlmlm/internal/api"
	"knlmlm/internal/mem"
	"knlmlm/internal/wire"
)

type config struct {
	url      string
	rates    []float64
	duration time.Duration
	nMin     int
	nMax     int
	seed     int64
	out      string
	verify   bool
	// verifySample downloads and checks every k-th completed job instead
	// of all of them (1 = all). At deep overload the driver's own JSON
	// decode of every result competes with the server for the same CPUs;
	// sampling keeps the sortedness check honest without the driver
	// becoming the bottleneck it is trying to measure.
	verifySample int
	spillN       int
	spillJobs    int
	deadlineMS   int64
	retries      int
	budget       int
	cbTrips      int
	cbCooldown   time.Duration
	// wireMode selects the submit/download encoding: "json", "binary", or
	// "both" (one full sweep per encoding).
	wireMode string
	// keyType selects the key representation: "i64" (default), "f64"
	// (float64 keys as raw IEEE-754 bit cells), or "rec" (key+payload
	// records, two cells each). Typed keys ride the binary wire only, so
	// f64/rec require -wire binary. n-min/n-max/spill-n stay in cells.
	keyType string
	// kind is keyType resolved to its wire stream kind.
	kind wire.Kind
	// cluster is set after the healthz probe when the target turns out to
	// be a coordinator (its /healthz carries a "backends" fleet view). It
	// relaxes single-node-only checks; no flag sets it.
	cluster bool
}

// levelResult is one offered-load point of the sweep.
type levelResult struct {
	OfferedRPS  float64 `json:"offered_rps"`
	DurationSec float64 `json:"duration_s"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Rejected    int     `json:"rejected"`
	// Shed counts jobs the server accepted and then evicted by overload
	// control (deadline infeasible in queue, brownout) — distinct from
	// rejections (never admitted) and failures (anything unexplained).
	Shed    int `json:"shed"`
	Failed  int `json:"failed"`
	Retries int `json:"retries"`
	// CompletedInWindow counts completions that landed inside the
	// offered-load window; GoodputRPS is that count over the window
	// length. Completions during the straggler drain (retry backoff tails
	// resolving after arrivals stop) are in Completed but not here — they
	// are work the server did outside the measured interval.
	CompletedInWindow int     `json:"completed_in_window"`
	GoodputRPS        float64 `json:"goodput_rps"`
	Latency           latency `json:"latency_ms"`
	// StartDelay summarizes the server-reported queue wait of completed
	// jobs — the quantity the start deadline bounds. Client-side latency
	// above includes the driver's own submit/download queuing; this is
	// the deadline-relevant distribution.
	StartDelay latency `json:"start_delay_ms"`
	// BreakerTrips is how many times this level's shared circuit breaker
	// opened on consecutive backpressure answers.
	BreakerTrips int64 `json:"breaker_trips,omitempty"`
	// Overload is the server-side overload attribution over this level:
	// the delta of sched_shed_total{reason} and the brownout level at the
	// end of the level.
	Overload *overloadStats `json:"overload,omitempty"`
}

// overloadStats is the server-side overload attribution for one level.
type overloadStats struct {
	ShedByReason  map[string]float64 `json:"shed_by_reason,omitempty"`
	BrownoutLevel float64            `json:"brownout_level_end"`
	BrownoutRaise float64            `json:"brownout_raises,omitempty"`
}

type latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

// spillResult is the over-DDR spill phase of the sweep: every job takes
// the three-level path (MCDRAM-staged sort, disk runs, streamed merge).
type spillResult struct {
	Elems     int     `json:"elems_per_job"`
	Jobs      int     `json:"jobs"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Latency   latency `json:"latency_ms"`
	// DownloadMBps is the mean streamed-result download rate, body bytes
	// over wall time of the chunked GET.
	DownloadMBps float64 `json:"download_mbps"`
	// SortMBps is the mean end-to-end spill throughput: input bytes over
	// submit-to-verified wall time (sort + spill + merge + stream).
	SortMBps float64 `json:"sort_mbps"`
	// Telemetry scraped from the server's /metrics after the phase: the
	// disk-rate model inputs and the spill tier's run accounting.
	DiskWriteBps float64 `json:"disk_write_bytes_per_sec"`
	DiskReadBps  float64 `json:"disk_read_bytes_per_sec"`
	SpillJobs    float64 `json:"sched_spill_jobs_total"`
	SpillRuns    float64 `json:"sched_spill_runs_total"`
	SpilledBytes float64 `json:"sched_spill_bytes_written_total"`
}

// phaseStat is one phase row of the server-side breakdown, reduced from
// the job_phase_seconds{phase=...} histogram's sum and count.
type phaseStat struct {
	// Group classifies the phase: "wall" phases (admit/queue/lease/run)
	// sum to submit→terminal latency; "work" phases are thread-seconds
	// inside run; "post" phases (merge/stream) land after terminal.
	Group  string  `json:"group"`
	Count  int64   `json:"count"`
	TotalS float64 `json:"total_s"`
	MeanMS float64 `json:"mean_ms"`
	// Share is the phase's fraction of its group's total time.
	Share float64 `json:"share"`
}

// modeSweep is one encoding's full sweep: the offered-load levels and
// the optional spill phase, as measured with that wire format.
type modeSweep struct {
	Levels []levelResult `json:"levels"`
	Spill  *spillResult  `json:"spill,omitempty"`
}

// benchFile is the BENCH_PR8.json document.
type benchFile struct {
	Bench     string `json:"bench"`
	Target    string `json:"target"`
	Seed      int64  `json:"seed"`
	ElemRange [2]int `json:"elem_range"`
	Verified  bool   `json:"verified_sorted"`
	// Wire is the encoding the sweep ran with: "json", "binary", or
	// "both" (then Levels/Spill are empty and Modes carries the per-mode
	// results).
	Wire   string        `json:"wire"`
	Levels []levelResult `json:"levels,omitempty"`
	Spill  *spillResult  `json:"spill,omitempty"`
	// Modes holds one full sweep per encoding when -wire=both.
	Modes map[string]*modeSweep `json:"modes,omitempty"`
	// DownloadSpeedup is the binary-over-JSON ratio of spill-phase
	// download throughput when both modes measured one (-wire=both with
	// -spill-n).
	DownloadSpeedup float64 `json:"download_speedup_binary_over_json,omitempty"`
	// Phases is the server-side per-phase breakdown scraped from
	// job_phase_seconds at the end of the sweep (all levels and the spill
	// phase combined — the histograms are cumulative).
	Phases map[string]phaseStat `json:"server_phase_breakdown,omitempty"`
	// ModelDriftMean is the mean measured-run / Eq. 1-5-predicted ratio
	// over staged jobs (job_model_drift_ratio's sum/count; 0 when the
	// sweep ran no staged jobs).
	ModelDriftMean float64 `json:"model_drift_mean,omitempty"`
	// Cluster carries the coordinator's routing/retry telemetry when the
	// target is an mlmcoord tier rather than a single node.
	Cluster *clusterStats `json:"cluster,omitempty"`
}

// clusterStats is the coordinator-side view of the sweep, scraped from
// the cluster_* metric families after the last level.
type clusterStats struct {
	Backends          int     `json:"backends"`
	BackendsUp        int     `json:"backends_up"`
	Jobs              float64 `json:"cluster_jobs_total"`
	JobsFailed        float64 `json:"cluster_jobs_failed_total,omitempty"`
	Partitions        float64 `json:"cluster_partitions_total"`
	PartitionRetries  float64 `json:"cluster_partition_retries_total"`
	PartitionBackoffs float64 `json:"cluster_partition_backoffs_total,omitempty"`
	Resamples         float64 `json:"cluster_partition_resamples_total,omitempty"`
	MergeBytes        float64 `json:"cluster_merge_bytes_total"`
	MergeStallSec     float64 `json:"cluster_merge_stall_seconds_total"`
	// BytesRouted is per-backend scattered key bytes, indexed like the
	// coordinator's -backends list — the routing skew the weighted
	// splitter selection actually produced.
	BytesRouted []float64 `json:"backend_bytes_routed"`
}

func main() {
	cfg := config{}
	var ratesFlag string
	quick := flag.Bool("quick", false, "one short low-rate level (CI smoke)")
	flag.StringVar(&cfg.url, "url", "http://127.0.0.1:8080", "mlmserve base URL")
	flag.StringVar(&ratesFlag, "rates", "25,50,100,200", "offered arrival rates to sweep, jobs/sec")
	flag.DurationVar(&cfg.duration, "duration", 3*time.Second, "time spent at each offered rate")
	flag.IntVar(&cfg.nMin, "n-min", 1000, "minimum keys per job")
	flag.IntVar(&cfg.nMax, "n-max", 50000, "maximum keys per job")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.out, "out", "BENCH_PR8.json", "output JSON path")
	flag.BoolVar(&cfg.verify, "verify", true, "download and verify completed results are sorted")
	flag.IntVar(&cfg.verifySample, "verify-sample", 1, "verify every k-th completed job (1 = all; larger keeps the driver off the server's CPUs at deep overload)")
	flag.IntVar(&cfg.spillN, "spill-n", 0, "keys per spill-phase job; must exceed the server's DDR budget (0 disables the spill phase)")
	flag.IntVar(&cfg.spillJobs, "spill-jobs", 5, "jobs in the spill phase (with -spill-n)")
	flag.Int64Var(&cfg.deadlineMS, "deadline-ms", 0, "per-job start deadline sent to the server, ms after arrival (0 = none)")
	flag.IntVar(&cfg.retries, "retries", 3, "max retries per job after a backpressure answer")
	flag.IntVar(&cfg.budget, "retry-budget", 200, "shared retry tokens per level; an exhausted budget turns retries into give-ups")
	flag.IntVar(&cfg.cbTrips, "cb-threshold", 10, "consecutive 429/503 answers that open the circuit breaker (0 disables it)")
	flag.DurationVar(&cfg.cbCooldown, "cb-cooldown", 500*time.Millisecond, "how long an open circuit breaker stays open")
	flag.StringVar(&cfg.wireMode, "wire", "json", "submit/download encoding: json, binary, or both (one sweep per encoding)")
	flag.StringVar(&cfg.keyType, "key-type", "i64", "key representation: i64, f64 (float64 bit cells), or rec (key+payload records; sizes count cells). f64/rec require -wire binary")
	flag.Parse()

	switch cfg.wireMode {
	case "json", "binary", "both":
	default:
		fmt.Fprintf(os.Stderr, "loadgen: bad -wire %q (want json, binary, or both)\n", cfg.wireMode)
		os.Exit(1)
	}
	switch cfg.keyType {
	case "i64":
		cfg.kind = wire.KindInt64
	case "f64":
		cfg.kind = wire.KindFloat64
	case "rec":
		cfg.kind = wire.KindRecord
	default:
		fmt.Fprintf(os.Stderr, "loadgen: bad -key-type %q (want i64, f64, or rec)\n", cfg.keyType)
		os.Exit(1)
	}
	if cfg.kind != wire.KindInt64 && cfg.wireMode != "binary" {
		fmt.Fprintf(os.Stderr, "loadgen: -key-type %s needs -wire binary (typed keys have no JSON encoding)\n", cfg.keyType)
		os.Exit(1)
	}
	if cfg.kind == wire.KindRecord {
		// Record streams carry whole records: every job size in cells must
		// be even, so the bounds are rounded rather than rejected.
		cfg.nMin = max(cfg.nMin&^1, 2)
		cfg.nMax = max(cfg.nMax&^1, 2)
		cfg.spillN &^= 1
	}

	if *quick {
		ratesFlag = "20"
		cfg.duration = 1 * time.Second
		cfg.nMax = 8000
	}
	for _, f := range strings.Split(ratesFlag, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 {
			fmt.Fprintf(os.Stderr, "loadgen: bad rate %q\n", f)
			os.Exit(1)
		}
		cfg.rates = append(cfg.rates, r)
	}

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	// The transport mirrors the driver's concurrency: enough idle conns to
	// avoid churn at the deepest overload level, and expect-continue
	// support so a pre-decode rejection costs one header exchange instead
	// of a full body upload.
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:          4096,
			MaxIdleConnsPerHost:   4096,
			ExpectContinueTimeout: time.Second,
		},
	}
	if err := waitHealthy(client, cfg.url, 10*time.Second); err != nil {
		return err
	}
	backends, up := probeCluster(client, cfg.url)
	cfg.cluster = backends > 0
	if cfg.cluster {
		fmt.Printf("target is a cluster coordinator: %d backends (%d up)\n", backends, up)
	}

	doc := benchFile{
		Bench:     "sort-service overload sweep (closed-loop retry clients)",
		Target:    cfg.url,
		Seed:      cfg.seed,
		ElemRange: [2]int{cfg.nMin, cfg.nMax},
		Verified:  cfg.verify,
		Wire:      cfg.wireMode,
	}
	modes := []string{cfg.wireMode}
	if cfg.wireMode == "both" {
		modes = []string{"json", "binary"}
		doc.Modes = map[string]*modeSweep{}
	}
	for _, mode := range modes {
		if cfg.wireMode == "both" {
			fmt.Printf("== wire: %s ==\n", mode)
		}
		sweep, err := runSweep(client, cfg, mode == "binary")
		if err != nil {
			return err
		}
		if cfg.wireMode == "both" {
			doc.Modes[mode] = sweep
		} else {
			doc.Levels = sweep.Levels
			doc.Spill = sweep.Spill
		}
	}
	if doc.Modes != nil {
		jm, bm := doc.Modes["json"], doc.Modes["binary"]
		if jm != nil && bm != nil && jm.Spill != nil && bm.Spill != nil && jm.Spill.DownloadMBps > 0 {
			doc.DownloadSpeedup = bm.Spill.DownloadMBps / jm.Spill.DownloadMBps
			fmt.Printf("download speedup binary/json: %.1fx (%.1f vs %.1f MB/s)\n",
				doc.DownloadSpeedup, bm.Spill.DownloadMBps, jm.Spill.DownloadMBps)
		}
	}

	phases, drift, err := scrapePhaseBreakdown(client, cfg.url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: phase scrape:", err)
	} else if len(phases) > 0 {
		doc.Phases = phases
		doc.ModelDriftMean = drift
		printPhaseSummary(phases, drift)
	}

	if cfg.cluster {
		cs, err := scrapeClusterStats(client, cfg.url, backends)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: cluster scrape:", err)
		} else {
			doc.Cluster = cs
			fmt.Printf("cluster: %d jobs over %d partitions, %d retries, %d backpressure waits, merge stall %.2fs\n",
				int(cs.Jobs), int(cs.Partitions), int(cs.PartitionRetries),
				int(cs.PartitionBackoffs), cs.MergeStallSec)
		}
	}

	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(cfg.out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.out)
	return nil
}

// runSweep drives the full measurement — every offered-load level plus
// the optional spill phase — with one wire encoding.
func runSweep(client *http.Client, cfg config, binary bool) (*modeSweep, error) {
	sweep := &modeSweep{}
	for _, rate := range cfg.rates {
		before, _ := scrapeOverload(client, cfg.url)
		lvl := runLevel(client, cfg, rate, binary)
		if after, err := scrapeOverload(client, cfg.url); err == nil {
			lvl.Overload = after.delta(before)
		}
		sweep.Levels = append(sweep.Levels, lvl)
		fmt.Printf("rate %6.1f/s: %d submitted, %d ok, %d rejected, %d shed, %d failed, %d retries — goodput %.1f/s, p50 %.1fms p95 %.1fms p99 %.1fms, start-delay p99 %.1fms\n",
			rate, lvl.Submitted, lvl.Completed, lvl.Rejected, lvl.Shed, lvl.Failed, lvl.Retries,
			lvl.GoodputRPS, lvl.Latency.P50, lvl.Latency.P95, lvl.Latency.P99, lvl.StartDelay.P99)
	}
	if cfg.spillN > 0 {
		sp, err := runSpillPhase(client, cfg, binary)
		if err != nil {
			return nil, err
		}
		sweep.Spill = sp
		fmt.Printf("spill %d×%d: %d ok, %d failed — p50 %.1fms, sort %.1f MB/s, download %.1f MB/s, %d runs over %d jobs\n",
			sp.Jobs, sp.Elems, sp.Completed, sp.Failed, sp.Latency.P50,
			sp.SortMBps, sp.DownloadMBps, int(sp.SpillRuns), int(sp.SpillJobs))
	}
	return sweep, nil
}

// submitBody renders one job's submit request for the chosen encoding:
// a JSON envelope, or the binary frame stream with the envelope options
// (wait, deadline_ms) carried on the query string.
func submitBody(keys []int64, deadlineMS int64, binary bool, kind wire.Kind) (body []byte, contentType, query string) {
	if !binary {
		raw, _ := json.Marshal(api.SortRequest{Keys: keys, Wait: true, DeadlineMS: deadlineMS})
		return raw, "application/json", ""
	}
	query = "?wait=1"
	if deadlineMS > 0 {
		query += "&deadline_ms=" + strconv.FormatInt(deadlineMS, 10)
	}
	return wire.EncodeKind(nil, kind, keys, 0), wire.ContentTypeFor(kind), query
}

// genCells fills one job's payload cells for the configured key type:
// random int64 keys, random finite float64 bit patterns, or key+payload
// record pairs with dup-heavy keys (n is rounded down to whole records
// by the callers).
func genCells(rng *rand.Rand, n int, kind wire.Kind) []int64 {
	cells := make([]int64, n)
	switch kind {
	case wire.KindFloat64:
		for i := range cells {
			cells[i] = int64(math.Float64bits(rng.NormFloat64() * 1e6))
		}
	case wire.KindRecord:
		for i := 0; i+1 < n; i += 2 {
			cells[i] = rng.Int63n(1 << 20)
			cells[i+1] = rng.Int63()
		}
	default:
		for i := range cells {
			cells[i] = rng.Int63()
		}
	}
	return cells
}

// cellsInOrder reports whether a downloaded result respects the key
// type's order: int64 ascending, the float64 total order over raw bits,
// or nondecreasing record keys (even cells).
func cellsInOrder(cells []int64, kind wire.Kind) bool {
	switch kind {
	case wire.KindFloat64:
		flip := func(v int64) uint64 {
			u := uint64(v)
			if u>>63 == 1 {
				return ^u
			}
			return u | 1<<63
		}
		for i := 1; i < len(cells); i++ {
			if flip(cells[i]) < flip(cells[i-1]) {
				return false
			}
		}
	case wire.KindRecord:
		for i := 2; i < len(cells); i += 2 {
			if cells[i] < cells[i-2] {
				return false
			}
		}
	default:
		for i := 1; i < len(cells); i++ {
			if cells[i] < cells[i-1] {
				return false
			}
		}
	}
	return true
}

// runSpillPhase submits cfg.spillJobs over-DDR jobs one at a time (the
// point is the three-level data path, not queueing), streams every result
// back, verifies it, and annotates the measurements with the server's
// spill telemetry.
func runSpillPhase(client *http.Client, cfg config, binary bool) (*spillResult, error) {
	sp := &spillResult{Elems: cfg.spillN, Jobs: cfg.spillJobs}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	var latencies []float64
	var dlMBps, sortMBps []float64
	for i := 0; i < cfg.spillJobs; i++ {
		keys := genCells(rng, cfg.spillN, cfg.kind)
		body, ct, query := submitBody(keys, 0, binary, cfg.kind)
		start := time.Now()
		resp, err := client.Post(cfg.url+"/v1/sort"+query, ct, bytes.NewReader(body))
		if err != nil {
			sp.Failed++
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st api.JobStatus
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &st) != nil || st.State != "done" {
			sp.Failed++
			continue
		}
		if !st.Spilled && !cfg.cluster {
			// A coordinator never reports spilled: its big-job path is
			// scatter/merge across backends, which is exactly what this
			// phase then measures end to end.
			return nil, fmt.Errorf("spill phase: %d-key job was not spilled — raise -spill-n past the server's DDR budget", cfg.spillN)
		}
		dlStart := time.Now()
		bodyBytes, ok := streamVerify(client, cfg.url+st.ResultURL, cfg.spillN, binary, cfg.kind)
		if !ok {
			sp.Failed++
			continue
		}
		dlSec := time.Since(dlStart).Seconds()
		total := time.Since(start)
		sp.Completed++
		latencies = append(latencies, float64(total.Nanoseconds())/1e6)
		if dlSec > 0 {
			dlMBps = append(dlMBps, float64(bodyBytes)/1e6/dlSec)
		}
		sortMBps = append(sortMBps, float64(cfg.spillN*8)/1e6/total.Seconds())
	}
	sp.Latency = summarize(latencies)
	sp.DownloadMBps = mean(dlMBps)
	sp.SortMBps = mean(sortMBps)

	m, err := scrapeMetrics(client, cfg.url)
	if err != nil {
		return nil, err
	}
	sp.DiskWriteBps = m["spill_disk_write_bytes_per_sec"]
	sp.DiskReadBps = m["spill_disk_read_bytes_per_sec"]
	sp.SpillJobs = m["sched_spill_jobs_total"]
	sp.SpillRuns = m["sched_spill_runs_total"]
	sp.SpilledBytes = m["sched_spill_bytes_written_total"]
	return sp, nil
}

// verifyBufs recycles result-verification buffers across downloads. The
// job's n is known before its result is fetched, so the destination is
// sized up front and reused — without it every verified download grows a
// fresh []int64 from nil, and at spill sizes that allocation churn makes
// the driver the bottleneck it is trying to measure.
var verifyBufs = mem.NewSlicePool()

// streamVerify downloads a result, returning its body size and whether
// it decoded to wantN cells in the key type's order. With binary set it
// negotiates the frame stream, checks the declared kind and total
// against the job's known shape before reading any payload, and decodes
// into the pooled buffer's memory directly.
func streamVerify(client *http.Client, url string, wantN int, binary bool, kind wire.Kind) (int64, bool) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, false
	}
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	cr := &countingReader{r: resp.Body}
	buf := verifyBufs.Get(wantN)
	if buf == nil {
		buf = make([]int64, wantN)
	}
	defer verifyBufs.Put(buf)
	var keys []int64
	if binary {
		fr, err := wire.NewReaderAnyKind(cr)
		if err != nil || fr.Kind() != kind || fr.Total() != int64(wantN) {
			return cr.n, false
		}
		if err := fr.ReadInto(buf); err != nil {
			return cr.n, false
		}
		keys = buf
	} else {
		keys = buf[:0]
		if err := json.NewDecoder(cr).Decode(&keys); err != nil {
			return cr.n, false
		}
	}
	if len(keys) != wantN {
		return cr.n, false
	}
	return cr.n, cellsInOrder(keys, kind)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// scrapeMetrics parses the server's Prometheus text exposition into a
// flat name -> value map (labelless gauges and counters only, which is
// all the spill families use).
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, nil
}

// phaseGroups maps each job_phase_seconds phase label onto its breakdown
// group (mirrors internal/telemetry's taxonomy).
var phaseGroups = map[string]string{
	"admit": "wall", "queue": "wall", "lease": "wall", "run": "wall",
	"copy-in": "work", "compute": "work", "copy-out": "work", "spill-write": "work",
	"merge": "post", "stream": "post",
}

// scrapePhaseBreakdown reads the server's job_phase_seconds histograms
// (labeled series — the flat scrapeMetrics skips those) and reduces each
// phase to count / total / mean / within-group share, plus the mean model
// drift ratio from job_model_drift_ratio.
func scrapePhaseBreakdown(client *http.Client, url string) (map[string]phaseStat, float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	phases := map[string]phaseStat{}
	var driftSum, driftCount float64
	const sumPrefix = `job_phase_seconds_sum{phase="`
	const countPrefix = `job_phase_seconds_count{phase="`
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], sumPrefix):
			if name, ok := strings.CutSuffix(fields[0][len(sumPrefix):], `"}`); ok {
				st := phases[name]
				st.TotalS = val
				phases[name] = st
			}
		case strings.HasPrefix(fields[0], countPrefix):
			if name, ok := strings.CutSuffix(fields[0][len(countPrefix):], `"}`); ok {
				st := phases[name]
				st.Count = int64(val)
				phases[name] = st
			}
		case fields[0] == "job_model_drift_ratio_sum":
			driftSum = val
		case fields[0] == "job_model_drift_ratio_count":
			driftCount = val
		}
	}
	groupTotal := map[string]float64{}
	for name, st := range phases {
		st.Group = phaseGroups[name]
		phases[name] = st
		groupTotal[st.Group] += st.TotalS
	}
	for name, st := range phases {
		if st.Count > 0 {
			st.MeanMS = st.TotalS / float64(st.Count) * 1e3
		}
		if t := groupTotal[st.Group]; t > 0 {
			st.Share = st.TotalS / t
		}
		phases[name] = st
	}
	drift := 0.0
	if driftCount > 0 {
		drift = driftSum / driftCount
	}
	return phases, drift, nil
}

// printPhaseSummary prints the wall-phase attribution line the sweep ends
// with — the human-readable version of server_phase_breakdown.
func printPhaseSummary(phases map[string]phaseStat, drift float64) {
	var parts []string
	for _, name := range []string{"admit", "queue", "lease", "run", "merge", "stream"} {
		st, ok := phases[name]
		if !ok || st.Count == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.0f%% (mean %.1fms)", name, st.Share*100, st.MeanMS))
	}
	fmt.Printf("server phases: %s\n", strings.Join(parts, ", "))
	if drift > 0 {
		fmt.Printf("model drift: measured/predicted run mean %.2fx\n", drift)
	}
}

// probeCluster asks /healthz whether the target is a coordinator: a
// single node has no "backends" array, a cluster tier always does.
// Returns the fleet size and how many backends are currently up (0, 0
// for a single node).
func probeCluster(client *http.Client, url string) (backends, up int) {
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var body struct {
		Backends []struct {
			Up bool `json:"up"`
		} `json:"backends"`
	}
	if json.NewDecoder(resp.Body).Decode(&body) != nil {
		return 0, 0
	}
	for _, b := range body.Backends {
		if b.Up {
			up++
		}
	}
	return len(body.Backends), up
}

// scrapeClusterStats reads the coordinator's cluster_* families: the
// labelless counters via the flat scrape, the per-backend routed bytes
// from the labeled cluster_backend_bytes_routed_total series.
func scrapeClusterStats(client *http.Client, url string, backends int) (*clusterStats, error) {
	flat, err := scrapeMetrics(client, url)
	if err != nil {
		return nil, err
	}
	cs := &clusterStats{
		Backends:          backends,
		Jobs:              flat["cluster_jobs_total"],
		JobsFailed:        flat["cluster_jobs_failed_total"],
		Partitions:        flat["cluster_partitions_total"],
		PartitionRetries:  flat["cluster_partition_retries_total"],
		PartitionBackoffs: flat["cluster_partition_backoffs_total"],
		Resamples:         flat["cluster_partition_resamples_total"],
		MergeBytes:        flat["cluster_merge_bytes_total"],
		MergeStallSec:     flat["cluster_merge_stall_seconds_total"],
		BytesRouted:       make([]float64, backends),
	}
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	const routedPrefix = `cluster_backend_bytes_routed_total{backend="`
	const upPrefix = `cluster_backend_up{backend="`
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		parseIdx := func(prefix string) (int, bool) {
			if !strings.HasPrefix(fields[0], prefix) {
				return 0, false
			}
			is, ok := strings.CutSuffix(fields[0][len(prefix):], `"}`)
			if !ok {
				return 0, false
			}
			i, err := strconv.Atoi(is)
			return i, err == nil && i >= 0 && i < backends
		}
		if i, ok := parseIdx(routedPrefix); ok {
			cs.BytesRouted[i] = val
		} else if _, ok := parseIdx(upPrefix); ok && val > 0 {
			cs.BackendsUp++
		}
	}
	return cs, nil
}

// waitHealthy polls /healthz until the server answers 200.
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
			if err != nil {
				return fmt.Errorf("server never became healthy: %v", err)
			}
			return fmt.Errorf("server never became healthy")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// runLevel drives one offered-load level: arrivals fire on a fixed clock
// for cfg.duration regardless of how many requests are still in flight
// (open-loop arrivals), then the level waits for its stragglers. Each
// arrival is serviced by the closed-loop retry client, sharing one
// retry budget and one circuit breaker across the level.
func runLevel(client *http.Client, cfg config, rate float64, binary bool) levelResult {
	interval := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(cfg.seed))
	pol := retryPolicy{
		maxRetries:  cfg.retries,
		baseBackoff: 100 * time.Millisecond,
		maxBackoff:  5 * time.Second,
	}
	bud := newRetryBudget(cfg.budget)
	brk := newBreaker(cfg.cbTrips, cfg.cbCooldown)

	var (
		mu          sync.Mutex
		latencies   []float64 // milliseconds, completed jobs only
		startDelays []float64 // milliseconds, server-reported queue waits
		completed   int
		inWindow    int
		rejected    int
		shed        int
		failed      int
		retries     int
	)
	var wg sync.WaitGroup

	sample := cfg.verifySample
	if sample < 1 {
		sample = 1
	}
	// Pre-generate every request body before the timed window opens. Key
	// generation and body encoding cost real CPU per job; paid inside
	// the window they rise with the offered rate and the driver steals
	// capacity from the very server it is measuring — the measured "knee"
	// would be the driver's, not the service's.
	jobs := make([]prejob, 0, int(rate*cfg.duration.Seconds())+2)
	for i := 0; i < cap(jobs); i++ {
		n := cfg.nMin
		if cfg.nMax > cfg.nMin {
			n += rng.Intn(cfg.nMax - cfg.nMin)
		}
		if cfg.kind == wire.KindRecord {
			n &^= 1 // whole records only
		}
		krng := rand.New(rand.NewSource(rng.Int63()))
		keys := genCells(krng, n, cfg.kind)
		body, ct, query := submitBody(keys, cfg.deadlineMS, binary, cfg.kind)
		jobs = append(jobs, prejob{
			n: n, body: body, ct: ct, query: query, binary: binary,
			verify: cfg.verify && i%sample == 0,
		})
	}

	start := time.Now()
	submitted := 0
	for next := start; time.Since(start) < cfg.duration && submitted < len(jobs); next = next.Add(interval) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		pj := jobs[submitted]
		seed := rng.Int63()
		submitted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, startMS, tries, outcome := oneJob(client, cfg, pol, bud, brk, pj, seed)
			finished := time.Now()
			mu.Lock()
			defer mu.Unlock()
			retries += tries
			switch outcome {
			case "ok":
				completed++
				if finished.Sub(start) <= cfg.duration {
					inWindow++
				}
				latencies = append(latencies, ms)
				startDelays = append(startDelays, startMS)
			case "rejected":
				rejected++
			case "shed":
				shed++
			default:
				failed++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Goodput is in-window completions per second of offered-load window —
	// the server's sustained completion rate while arrivals are firing.
	// Dividing total completions by total elapsed would fold the straggler
	// drain (mostly doomed retries waiting out backoff) into the
	// denominator, making goodput collapse with offered load even when the
	// server's completion rate is flat; counting drain completions against
	// the window alone would inflate it.
	return levelResult{
		OfferedRPS:        rate,
		DurationSec:       elapsed.Seconds(),
		Submitted:         submitted,
		Completed:         completed,
		Rejected:          rejected,
		Shed:              shed,
		Failed:            failed,
		Retries:           retries,
		CompletedInWindow: inWindow,
		GoodputRPS:        float64(inWindow) / cfg.duration.Seconds(),
		Latency:           summarize(latencies),
		StartDelay:        summarize(startDelays),
		BreakerTrips:      brk.tripCount(),
	}
}

// prejob is one pre-generated request: the body is encoded before the
// level's timed window opens so the driver's in-window CPU cost is just
// the wire work.
type prejob struct {
	n      int
	body   []byte
	ct     string
	query  string
	binary bool
	verify bool
}

// oneJob runs one job through the closed-loop retry client: submit in
// wait mode, verify on success (when this job is in the verify sample),
// back off and retry on backpressure within the policy, budget, and
// breaker. Outcome is "ok", "rejected" (backpressure that retries could
// not clear), "shed" (accepted by the server, then evicted by its
// overload control), or "failed". Latency is first-attempt submit to
// verified completion — the client's view, retries included; startMS is
// the server-reported queue wait, the quantity a start deadline bounds.
func oneJob(client *http.Client, cfg config, pol retryPolicy, bud *retryBudget, brk *breaker, pj prejob, seed int64) (ms, startMS float64, tries int, outcome string) {
	rng := rand.New(rand.NewSource(seed))
	body := pj.body

	start := time.Now()
	for attempt := 0; ; attempt++ {
		// retryable asks the shared discipline whether one more attempt is
		// allowed, spending a budget token if so.
		retryable := func() bool {
			return attempt < pol.maxRetries && bud.take()
		}
		now := time.Now()
		if !brk.allow(now) {
			// Breaker open: no wire traffic. Waiting out the cooldown is a
			// retry like any other — bounded by the same policy.
			if !retryable() {
				return 0, 0, attempt, "rejected"
			}
			time.Sleep(pol.jitteredBackoff(rng, attempt, cfg.cbCooldown))
			continue
		}
		req, err := http.NewRequest(http.MethodPost, cfg.url+"/v1/sort"+pj.query, bytes.NewReader(body))
		if err != nil {
			return 0, 0, attempt, "failed"
		}
		req.Header.Set("Content-Type", pj.ct)
		if cfg.deadlineMS > 0 {
			// Carrying the deadline in a header lets the server shed this
			// request before decoding the body when the model already knows
			// it cannot start in time; expect-continue keeps the body off
			// the wire entirely on that path.
			req.Header.Set("X-Deadline-Ms", strconv.FormatInt(cfg.deadlineMS, 10))
			req.Header.Set("Expect", "100-continue")
		}
		resp, err := client.Do(req)
		if err != nil {
			brk.record(time.Now(), false)
			return 0, 0, attempt, "failed"
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()

		switch resp.StatusCode {
		case http.StatusOK:
			brk.record(time.Now(), false)
			var st api.JobStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				return 0, 0, attempt, "failed"
			}
			if st.State != "done" {
				if st.Shed {
					// The server admitted the job and its overload control
					// evicted it — an explicit verdict, not a failure.
					return 0, 0, attempt, "shed"
				}
				return 0, 0, attempt, "failed"
			}
			if pj.verify {
				if _, ok := streamVerify(client, cfg.url+st.ResultURL, pj.n, pj.binary, cfg.kind); !ok {
					return 0, 0, attempt, "failed"
				}
			}
			if w, err := time.ParseDuration(st.QueueWait); err == nil {
				startMS = float64(w.Nanoseconds()) / 1e6
			}
			return float64(time.Since(start).Nanoseconds()) / 1e6, startMS, attempt, "ok"
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			brk.record(time.Now(), true)
			if !retryable() {
				return 0, 0, attempt, "rejected"
			}
			time.Sleep(pol.jitteredBackoff(rng, attempt, retryHint(resp, raw)))
		default:
			brk.record(time.Now(), false)
			return 0, 0, attempt, "failed"
		}
	}
}

// retryHint extracts the server's backoff hint from a backpressure
// answer: the millisecond-precision retry_after_ms in the JSON body
// when present, else the whole-seconds Retry-After header, else zero
// (the client falls back to exponential backoff).
func retryHint(resp *http.Response, raw []byte) time.Duration {
	var eb api.ErrorBody
	if json.Unmarshal(raw, &eb) == nil && eb.RetryAfterMS > 0 {
		return time.Duration(eb.RetryAfterMS) * time.Millisecond
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.ParseInt(s, 10, 64); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// scrapeOverload reads the server's shed attribution and brownout state
// from /metrics (labeled families the flat scrapeMetrics skips).
func scrapeOverload(client *http.Client, url string) (*overloadStats, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	st := &overloadStats{ShedByReason: map[string]float64{}}
	const shedPrefix = `sched_shed_total{reason="`
	const raisePrefix = `sched_brownout_transitions_total{direction="raise"}`
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], shedPrefix):
			if reason, ok := strings.CutSuffix(fields[0][len(shedPrefix):], `"}`); ok {
				st.ShedByReason[reason] = val
			}
		case fields[0] == "sched_brownout_level":
			st.BrownoutLevel = val
		case fields[0] == raisePrefix:
			st.BrownoutRaise = val
		}
	}
	return st, nil
}

// delta subtracts an earlier scrape, yielding this level's contribution.
// The brownout level is a gauge and is reported as-is (end of level).
func (s *overloadStats) delta(before *overloadStats) *overloadStats {
	out := &overloadStats{ShedByReason: map[string]float64{}, BrownoutLevel: s.BrownoutLevel, BrownoutRaise: s.BrownoutRaise}
	for reason, v := range s.ShedByReason {
		d := v
		if before != nil {
			d -= before.ShedByReason[reason]
		}
		if d > 0 {
			out.ShedByReason[reason] = d
		}
	}
	if before != nil {
		out.BrownoutRaise -= before.BrownoutRaise
		if out.BrownoutRaise < 0 {
			out.BrownoutRaise = 0
		}
	}
	if len(out.ShedByReason) == 0 {
		out.ShedByReason = nil
	}
	return out
}

// summarize reduces a latency sample to the percentiles the sweep reports.
func summarize(ms []float64) latency {
	if len(ms) == 0 {
		return latency{}
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	pct := func(p float64) float64 {
		i := int(p * float64(len(ms)-1))
		return ms[i]
	}
	return latency{
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
		Mean: sum / float64(len(ms)),
		Max:  ms[len(ms)-1],
	}
}
