package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buffer"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
)

func quantile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(i)
	return float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac
}

func medianNs(v []int64) float64 {
	return quantile(sortNs(append([]int64(nil), v...)), 0.5)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// counters is one snapshot of every cumulative counter the benchmark
// reads. Per-layer metrics are deltas between two snapshots.
type counters struct {
	pool     buffer.Stats
	decodes  uint64
	walEnd   uint64
	walSyncs uint64
	plans    engine.PlanCacheStats
	net      engine.NetStats
	repl     engine.ReplStats
	parsed   uint64
	binds    uint64
	chooses  uint64
	gcCycles uint64
	allocB   uint64
	allocN   uint64
	host     hostCPU
}

// snapshot reads the counters of the databases the workload runs.
// Pool and decode counters sum over all of them; WAL, plan-cache and
// network counters come from primary; replication counters from
// replica when there is one.
func snapshot(primary, replica *engine.DB, net func() engine.NetStats) counters {
	var c counters
	for _, db := range []*engine.DB{primary, replica} {
		if db == nil {
			continue
		}
		ps := db.Pool().Stats()
		c.pool.Fetches += ps.Fetches
		c.pool.Hits += ps.Hits
		c.pool.Reads += ps.Reads
		c.pool.Writes += ps.Writes
		c.decodes += db.DecodeCount()
	}
	ws := primary.WALStats()
	c.walEnd, c.walSyncs = ws.End, ws.Syncs
	c.plans = primary.PlanCacheStats()
	if net != nil {
		c.net = net()
	}
	if replica != nil {
		c.repl = replica.ReplStats()
	}
	c.parsed = sql.StatementsParsed()
	c.binds = plan.PrepareCount()
	c.chooses = plan.ChooseCount()
	c.gcCycles, c.allocB, c.allocN = runtimeCounters()
	c.host = readHostCPU()
	return c
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func runtimeCounters() (gc, allocBytes, allocObjs uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	get := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	return get(0), get(1), get(2)
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU is the aggregate line of /proc/stat in clock ticks.
type hostCPU struct{ steal, total uint64 }

func readHostCPU() hostCPU {
	blob, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(blob, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of host CPU time stolen between a and b.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// freeMemory returns what the process no longer uses to the kernel,
// so the resident set reflects live data before timing starts.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// clearPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set.
func clearPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, VmHWM covers more than the window
}

// peakRSSMiB reads VmHWM from /proc/self/status; 0 if unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
