package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// A timed phase is numWindows windows of client work. After each
// window the clients pause and the calibration kernel runs for
// calibrateFor (see calib.go). Host interference on a shared machine
// (CPU steal, a busy SMT sibling, memory-bandwidth neighbours) changes
// how fast the machine runs from one minute to the next, and it moves
// the kernel and the workload alike; the end-to-end timings are scaled
// by refSpeed over the mean kernel speed of the kept windows, so they
// read as if the machine ran at refSpeed. One short kernel sample is
// too noisy to scale its own window by; the mean over the phase is
// not.
//
// Host CPU steal is different: while the hypervisor runs another guest
// on our vCPU, ops stall outright and the kernel, run at another
// moment, does not see it. A window whose steal share exceeds
// stealLimit is rejected and another window is run in its place, up to
// maxWindows in all; the metrics use the numWindows windows with the
// least steal, and the diagnostics count the rejected ones. What steal
// remains in a kept window is taken out of its wall-clock figures:
// rates are divided, and latencies multiplied, by the share of CPU
// time the window was not robbed of (see window.avail).
const (
	numWindows   = 20
	maxWindows   = numWindows + 3
	stealLimit   = 5.0 // percent of host CPU time
	calibrateFor = 100 * time.Millisecond
)

// gate opens and closes the windows of a phase. Every op runs under
// the read lock, so closing a window (the write lock) waits for the
// ops in flight and holds the next ones back.
type gate struct {
	mu       sync.RWMutex
	win      int           // the open window
	stopped  bool          // the phase is over
	openedAt time.Time     // when the open window opened
	active   time.Duration // summed length of the closed windows
}

// enter blocks until a window is open and reports its index, or false
// once the phase is over. A true result must be paired with leave.
func (g *gate) enter() (int, bool) {
	g.mu.RLock()
	if g.stopped {
		g.mu.RUnlock()
		return 0, false
	}
	return g.win, true
}

func (g *gate) leave() { g.mu.RUnlock() }

// activeNow is the phase's active time: wall time minus the pauses.
// The caller is inside enter/leave.
func (g *gate) activeNow() time.Duration { return g.active + time.Since(g.openedAt) }

// window is one window's measurement.
type window struct {
	dur   time.Duration // how long it was open
	cpu   time.Duration // process CPU time while open
	steal float64       // host steal share while open, %
	speed float64       // calibration kernel rounds/s right after it
	rss   float64       // resident-set high-water mark while open, MiB
	ops   int64
	rows  int64
}

// avail is the share of host CPU time the window was not robbed of by
// steal, floored at one half so that a pathological window cannot
// dominate.
func (w window) avail() float64 { return max(1-w.steal/100, 0.5) }

// clientLog is one client goroutine's record of a timed phase. Only
// its own goroutine writes it; the phase reads it after the join.
type clientLog struct {
	lat       []int64 // op latencies in ns, preallocated before timing
	win       []uint8 // window of each op, parallel to lat
	winOps    [maxWindows]int64
	winRows   [maxWindows]int64
	cur       int // window of the op in progress
	rows      int64
	attempted int64
	failed    int64 // errors and wrong answers
	wrong     int64 // wrong answers (subset of failed)
	conflicts int64
	commits   int64 // acknowledged commits
	firstErr  error
	tr        *tracer // nil in untraced phases
}

// newClientLog returns a log whose latency store is allocated and
// touched up front, so the memory the timed phase adds does not depend
// on how many ops it completes.
func newClientLog(capOps int) *clientLog {
	l := &clientLog{lat: make([]int64, capOps), win: make([]uint8, capOps)}
	for i := range l.lat {
		l.lat[i], l.win[i] = 1, 1
	}
	return l
}

// done records one successful op that started at begin and returned
// rows result rows.
func (l *clientLog) done(begin time.Time, rows int64) {
	l.attempted++
	l.rows += rows
	l.lat = append(l.lat, int64(time.Since(begin)))
	l.win = append(l.win, uint8(l.cur))
	l.winOps[l.cur]++
	l.winRows[l.cur] += rows
}

// fail records one failed op; wrong marks a wrong answer rather than
// an error returned by the system.
func (l *clientLog) fail(err error, wrong bool) {
	l.attempted++
	l.failed++
	if wrong {
		l.wrong++
	}
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// runPhase runs the clients' closed loops and the instance's background
// work in windows of d/numWindows until numWindows of them stayed
// under stealLimit (or maxWindows ran) and returns the merged logs
// with the counters around the phase.
func runPhase(inst instance, logs []*clientLog, d time.Duration, traced bool) (phaseResult, counters, counters, bgResult) {
	before := inst.counters()
	g := &gate{}
	g.mu.Lock() // nothing runs until the first window opens
	epoch := time.Now()
	bgDone := make(chan bgResult, 1)
	go func() { bgDone <- inst.background(g) }()
	var wg sync.WaitGroup
	for c, l := range logs {
		var tr *tracer
		if traced {
			tr = newTracer(epoch)
		}
		*l = clientLog{lat: l.lat[:0], win: l.win[:0], tr: tr}
		wg.Add(1)
		go func(c int, l *clientLog) {
			defer wg.Done()
			for {
				w, ok := g.enter()
				if !ok {
					return
				}
				l.cur = w
				inst.op(c, l)
				g.leave()
			}
		}(c, l)
	}
	width := d / numWindows
	var wins []window
	for quiet := 0; quiet < numWindows && len(wins) < maxWindows; {
		g.win = len(wins)
		clearPeakRSS()
		cpu0, host0 := processCPU(), readHostCPU()
		g.openedAt = time.Now()
		g.mu.Unlock()
		time.Sleep(width)
		g.mu.Lock()
		var w window
		w.dur = time.Since(g.openedAt)
		g.active += w.dur
		w.cpu = processCPU() - cpu0
		w.steal = stealPct(host0, readHostCPU())
		w.rss = peakRSSMiB()
		// Finish any collection the window left running, so the kernel
		// never competes with the workload's garbage: otherwise a change
		// that allocates less would also make the kernel look faster.
		runtime.GC()
		w.speed = calibrate(calibrateFor, len(logs))
		if w.steal <= stealLimit {
			quiet++
		}
		wins = append(wins, w)
	}
	g.stopped = true
	g.mu.Unlock()
	wg.Wait()
	bgr := <-bgDone
	after := inst.counters()
	return mergeLogs(logs, wins, g.active), before, after, bgr
}

// phaseResult merges the client logs of one phase. The end-to-end
// metrics use the kept windows: the numWindows with the least steal.
type phaseResult struct {
	lat       []int64 // latencies of the ops in kept windows, at reference speed and without steal, sorted
	wins      []window
	kept      []int
	scale     float64 // mean kernel speed over refSpeed in kept windows; times are multiplied by it
	ops       int64   // ops completed in all windows
	rows      int64
	attempted int64
	failed    int64
	wrong     int64
	conflicts int64
	commits   int64
	firstErr  error
	active    time.Duration // summed window lengths
	spans     [][]span
}

// forcedGCs is how many collections the phase itself triggered, one
// per window.
func (r phaseResult) forcedGCs() uint64 { return uint64(len(r.wins)) }

func mergeLogs(logs []*clientLog, wins []window, active time.Duration) phaseResult {
	r := phaseResult{wins: wins, active: active}
	for _, l := range logs {
		for w := range wins {
			wins[w].ops += l.winOps[w]
			wins[w].rows += l.winRows[w]
		}
	}
	bySteal := make([]int, len(wins))
	for i := range bySteal {
		bySteal[i] = i
	}
	sort.SliceStable(bySteal, func(i, j int) bool { return wins[bySteal[i]].steal < wins[bySteal[j]].steal })
	r.kept = bySteal[:min(numWindows, len(wins))]
	sort.Ints(r.kept)
	var kept [maxWindows]bool
	for _, w := range r.kept {
		kept[w] = true
	}
	for _, w := range r.kept {
		r.scale += wins[w].speed / refSpeed / float64(len(r.kept))
	}
	for _, l := range logs {
		for i, ns := range l.lat {
			if w := l.win[i]; kept[w] {
				r.lat = append(r.lat, int64(float64(ns)*r.scale*wins[w].avail()))
			}
		}
		r.ops += int64(len(l.lat))
		r.rows += l.rows
		r.attempted += l.attempted
		r.failed += l.failed
		r.wrong += l.wrong
		r.conflicts += l.conflicts
		r.commits += l.commits
		if r.firstErr == nil {
			r.firstErr = l.firstErr
		}
		if l.tr != nil {
			r.spans = append(r.spans, l.tr.spans)
		}
	}
	sortNs(r.lat)
	return r
}

func sortNs(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

// keptMedian is the median over the kept windows of f(window).
func (r phaseResult) keptMedian(f func(window) float64) float64 {
	v := make([]float64, len(r.kept))
	for i, w := range r.kept {
		v[i] = f(r.wins[w])
	}
	return median(v)
}

// opsPerSec and rowsPerSec are kept-window medians at reference speed
// and without steal.
func (r phaseResult) opsPerSec() float64 {
	return r.keptMedian(func(w window) float64 { return float64(w.ops) / w.dur.Seconds() / w.avail() }) / r.scale
}

func (r phaseResult) rowsPerSec() float64 {
	return r.keptMedian(func(w window) float64 { return float64(w.rows) / w.dur.Seconds() / w.avail() }) / r.scale
}

// cpuMsPerOp is the kept-window median of process CPU per op at
// reference speed.
func (r phaseResult) cpuMsPerOp() float64 {
	return r.keptMedian(func(w window) float64 {
		return float64(w.cpu) / 1e6 / float64(max(w.ops, 1))
	}) * r.scale
}

// peakRSS is the kept-window median of the resident-set high-water
// mark.
func (r phaseResult) peakRSS() float64 {
	return r.keptMedian(func(w window) float64 { return w.rss })
}

// percentileMs is the p-quantile of the latencies, in ms.
func (r phaseResult) percentileMs(p float64) float64 { return quantile(r.lat, p) / 1e6 }

func (r phaseResult) windowStat(f func(window) float64) []float64 {
	out := make([]float64, len(r.wins))
	for i, w := range r.wins {
		out[i] = f(w)
	}
	return out
}
