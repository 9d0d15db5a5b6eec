package main

import (
	"os"
	"strconv"
	"strings"
)

// On a virtual machine the hypervisor runs other guests on the host's
// cores, and the time it takes from this guest's virtual CPUs (steal)
// comes and goes with the neighbours' load: over one 15-second window on
// a shared 2-vCPU guest it ranged from 4% to 20% of the CPU time the
// guest wanted, and job latency followed it one for one. The timed
// metrics are therefore reported net of steal: a job's wall time is
// scaled by the share of CPU time the guest got while the job ran. On
// hardware without a hypervisor steal is 0 and net equals wall.

// cpuTicks is one reading of the machine's aggregate CPU counters (the
// first line of /proc/stat, in USER_HZ ticks): steal, and every tick a
// CPU wanted to run (not idle or waiting on IO), steal included.
type cpuTicks struct{ steal, wanted float64 }

// readCPUTicks reads /proc/stat; where it cannot be read the counters
// are zero and every steal share is 0.
func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return parseCPUTicks(line)
}

// parseCPUTicks parses the aggregate "cpu" line of /proc/stat: user
// nice system idle iowait irq softirq steal [guest guest_nice]. Guest
// time is already counted in user and nice.
func parseCPUTicks(line string) cpuTicks {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]float64
	for i := range v {
		x, err := strconv.ParseFloat(f[i+1], 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = x
	}
	return cpuTicks{steal: v[7], wanted: v[0] + v[1] + v[2] + v[5] + v[6] + v[7]}
}

// stealShare is the share of the CPU time wanted between two readings
// that the hypervisor gave to someone else, in [0, 1).
func stealShare(a, b cpuTicks) float64 {
	w, s := b.wanted-a.wanted, b.steal-a.steal
	if w <= 0 || s <= 0 {
		return 0
	}
	return min(s/w, 0.99)
}
