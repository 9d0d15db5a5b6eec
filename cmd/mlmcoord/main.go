// Command mlmcoord runs the cluster coordinator: the distributed sort
// tier's router (internal/cluster) fronting a fleet of mlmserve
// backends with the same HTTP protocol a single node speaks.
//
// Examples:
//
//	mlmcoord -addr :9090 -backends http://127.0.0.1:8080,http://127.0.0.1:8081
//	mlmcoord -addr 127.0.0.1:0 -backends "$B0,$B1" -sample-rate 0.02 -merge-threads 4
//
// Jobs are range-partitioned with sampled splitters sized to each
// backend's polled capacity (Eq. 1-5 model on the node's own EWMA
// rates, degraded by brownout level and queue depth), scattered as
// binary wire uploads, and merged back into the client's download as a
// windowed k-way merge of the backend result streams. A backend that
// dies mid-job costs only the partitions it held; each is re-run on a
// surviving node, resuming mid-stream where the download stopped.
//
// The chosen listen address is printed on one line ("mlmcoord listening
// on ...") so wrappers binding port 0 can discover the port. SIGINT or
// SIGTERM drains: /healthz flips to 503, new submissions are refused,
// in-flight jobs finish, then the listener shuts down.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"knlmlm/internal/cluster"
	"knlmlm/internal/daemon"
)

type options struct {
	daemon.Flags
	backends     string
	sampleRate   float64
	partsPerNode int
	mergeThreads int
	blockElems   int
	retries      int
	pollInterval time.Duration
	retain       int
	skewLimit    float64
	seed         int64
}

func main() {
	var o options
	o.Register(":9090")
	flag.StringVar(&o.backends, "backends", "", "comma-separated mlmserve base URLs (required)")
	flag.Float64Var(&o.sampleRate, "sample-rate", 0, "fraction of keys sampled for splitter selection (0 = 0.01)")
	flag.IntVar(&o.partsPerNode, "parts-per-backend", 0, "range partitions per backend per job (0 = 2)")
	flag.IntVar(&o.mergeThreads, "merge-threads", 0, "thread budget for the result merge's read-ahead provisioning (0 = GOMAXPROCS)")
	flag.IntVar(&o.blockElems, "merge-block-elems", 0, "merge emission granularity, elements per block (0 = 32768)")
	flag.IntVar(&o.retries, "retries", 0, "failure-driven re-runs allowed per partition (0 = 4)")
	flag.DurationVar(&o.pollInterval, "poll-interval", 0, "backend capacity poll cadence (0 = 500ms)")
	flag.IntVar(&o.retain, "retain", 0, "terminal jobs retained for status lookup (0 = 64)")
	flag.Float64Var(&o.skewLimit, "skew-limit", 0, "partition skew triggering a splitter resample (0 = 2.5)")
	flag.Int64Var(&o.seed, "seed", 1, "splitter sampling seed")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mlmcoord:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	var backends []string
	for _, b := range strings.Split(o.backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		return fmt.Errorf("-backends is required (comma-separated mlmserve URLs)")
	}
	logger, err := o.Logger()
	if err != nil {
		return err
	}

	coord, err := cluster.New(cluster.Config{
		Backends:        backends,
		SampleRate:      o.sampleRate,
		PartsPerBackend: o.partsPerNode,
		MergeThreads:    o.mergeThreads,
		MergeBlockElems: o.blockElems,
		MaxRetries:      o.retries,
		PollInterval:    o.pollInterval,
		RetainJobs:      o.retain,
		SkewLimit:       o.skewLimit,
		Seed:            o.seed,
		Logger:          logger,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	srv, err := cluster.NewServer(cluster.ServerConfig{Coordinator: coord})
	if err != nil {
		return err
	}

	if err := o.Serve("mlmcoord", srv, fmt.Sprintf(" (%d backends)", len(backends))); err != nil {
		return err
	}
	fmt.Println("mlmcoord: drained")
	return nil
}
