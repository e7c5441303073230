package main

// The benchmark runs on shared virtual machines, where the hypervisor
// steals CPU from the VM while other tenants are busy. On the 2-vCPU host
// the benchmark was written on, stolen periods slowed whole 10 s runs by
// up to 40% and tripled p99. Timed work is therefore cut into windows of
// about a second, and the end-to-end metrics leave out every window in
// which the VM lost more than 1% of its CPU capacity to steal — unless
// fewer than a third of the windows are that quiet, in which case the
// least-stolen third is kept.

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// userHZ is the tick rate of /proc/stat's counters.
const userHZ = 100

// windowLen is the length a measurement window aims at.
const windowLen = time.Second

// stealTicks returns the CPU time stolen from this VM so far, in ticks
// (the steal column of /proc/stat's cpu line), or 0 where the kernel does
// not report it.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// window is one measured span of time and the CPU stolen during it.
type window struct {
	dur   time.Duration
	steal int64
}

// keepQuiet decides which windows the metrics use, and returns the share
// of the VM's CPU capacity stolen over all of them.
func keepQuiet(ws []window) (keep []bool, stolen float64) {
	keep = make([]bool, len(ws))
	var total time.Duration
	var steal int64
	quiet := 0
	for i, w := range ws {
		capacity := w.dur.Seconds() * float64(runtime.NumCPU()) * userHZ
		if float64(w.steal) <= max(1, 0.01*capacity) {
			keep[i] = true
			quiet++
		}
		total += w.dur
		steal += w.steal
	}
	if need := (len(ws) + 2) / 3; quiet < need {
		order := make([]int, len(ws))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return float64(ws[order[a]].steal)/ws[order[a]].dur.Seconds() < float64(ws[order[b]].steal)/ws[order[b]].dur.Seconds()
		})
		for _, i := range order[:need] {
			keep[i] = true
		}
	}
	if total > 0 {
		stolen = float64(steal) / (total.Seconds() * float64(runtime.NumCPU()) * userHZ)
	}
	return keep, stolen
}
