package cluster

import (
	"testing"

	"knlmlm/internal/api"
)

func healthyCap() api.Capacity {
	return api.Capacity{
		HeadroomBytes: 4 << 20,
		QueueDepth:    0,
		BrownoutLevel: 0,
		EWMACopyBps:   4.8e9,
		EWMACompBps:   6.78e9,
		Threads:       8,
	}
}

func TestBackendWeightDegradesWithBrownout(t *testing.T) {
	base := backendWeight(true, healthyCap())
	if base <= 0 {
		t.Fatal("healthy backend weighs zero")
	}
	prev := base
	for level := 1; level <= 3; level++ {
		c := healthyCap()
		c.BrownoutLevel = level
		w := backendWeight(true, c)
		if w >= prev {
			t.Fatalf("brownout level %d weight %.3g not below level %d weight %.3g", level, w, level-1, prev)
		}
		prev = w
	}
	// Level 2 should take roughly a third the share of a healthy node:
	// weight scales by 1/(1+level).
	c := healthyCap()
	c.BrownoutLevel = 2
	if ratio := backendWeight(true, c) / base; ratio < 0.25 || ratio > 0.45 {
		t.Fatalf("brownout-2 share ratio %.2f, want ~1/3", ratio)
	}
}

func TestBackendWeightDegradesWithQueueDepth(t *testing.T) {
	base := backendWeight(true, healthyCap())
	c := healthyCap()
	c.QueueDepth = 8
	if w := backendWeight(true, c); w >= base {
		t.Fatalf("deep queue weight %.3g not below idle weight %.3g", w, base)
	}
}

func TestBackendWeightTracksMeasuredRates(t *testing.T) {
	slow := healthyCap()
	slow.EWMACopyBps /= 4
	slow.EWMACompBps /= 4
	if ws := backendWeight(true, slow); ws >= backendWeight(true, healthyCap()) {
		t.Fatal("a 4x-slower node did not weigh less than a healthy one")
	}
}

func TestBackendWeightDownAndHeadroom(t *testing.T) {
	if backendWeight(false, healthyCap()) != 0 {
		t.Fatal("down backend must weigh zero")
	}
	c := healthyCap()
	c.HeadroomBytes = 0
	full := backendWeight(true, c)
	if full <= 0 {
		t.Fatal("full backend must keep a nonzero trickle weight")
	}
	if full >= backendWeight(true, healthyCap())/5 {
		t.Fatalf("zero headroom barely dented the weight: %.3g", full)
	}
}

func TestNodeRateZeroWithoutRates(t *testing.T) {
	if r := nodeRate(api.Capacity{Threads: 8}); r != 0 {
		t.Fatalf("nodeRate with no measured rates = %.3g, want 0", r)
	}
}
