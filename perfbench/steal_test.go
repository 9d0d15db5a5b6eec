package main

import "testing"

func TestParseCPUTicks(t *testing.T) {
	got := parseCPUTicks("cpu  1133299 0 177359 1372316 1110 0 37310 103045 0 0")
	want := cpuTicks{steal: 103045, wanted: 1133299 + 177359 + 37310 + 103045}
	if got != want {
		t.Fatalf("parse = %+v, want %+v", got, want)
	}
	for _, line := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if got := parseCPUTicks(line); got != (cpuTicks{}) {
			t.Errorf("parse(%q) = %+v, want zero", line, got)
		}
	}
}

func TestStealShare(t *testing.T) {
	a := cpuTicks{steal: 100, wanted: 1000}
	for _, tc := range []struct {
		b    cpuTicks
		want float64
	}{
		{cpuTicks{steal: 120, wanted: 1100}, 0.2},
		{cpuTicks{steal: 100, wanted: 1100}, 0},
		{cpuTicks{steal: 100, wanted: 1000}, 0}, // no CPU time wanted
		{cpuTicks{}, 0},                         // counters unreadable
		{cpuTicks{steal: 200, wanted: 1100}, 0.99},
	} {
		if got := stealShare(a, tc.b); got != tc.want {
			t.Errorf("stealShare(%+v, %+v) = %g, want %g", a, tc.b, got, tc.want)
		}
	}
}
