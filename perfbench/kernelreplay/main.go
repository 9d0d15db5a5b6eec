// Command kernelreplay prints the int64 psort kernel metrics of the
// benchmark's traced run as one JSON object, using nothing but psort.
// Because of that it also builds against older commits of the sort
// library, which makes a same-host A/B of a kernel cheap: export the old
// commit, copy perfbench/ into it, and run this command in both trees,
// alternating.
//
//	cd perfbench && go run ./kernelreplay -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"knlmlm/perfbench/kernels"
)

func main() {
	seed := flag.Int64("seed", 1, "input seed")
	flag.Parse()

	out := struct {
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		kernels.Int64Metrics
	}{runtime.GOMAXPROCS(0), runtime.Version(), kernels.Int64(rand.New(rand.NewSource(*seed)), nil)}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "kernelreplay:", err)
		os.Exit(1)
	}
}
