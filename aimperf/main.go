// Command aimperf is the repository's benchmark. One invocation runs
// one workload in its own process against freshly generated, seeded
// databases, checks every answer, and prints its metrics as the last
// line of standard output:
//
//	bash aimperf/run.sh --workload point-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// splits the run into an untraced and a traced half and reports the
// per-layer metrics, writing the spans under <dir>/traces. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRounds is how many times a run sets its database up; setup_s
// is the median.
const setupRounds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	tiny     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aimperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: point-read, nested-report, txn-write or replica-read")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated data and of the clients' key choices")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.dir, "dir", ".bench_build/aimperf", "scratch directory for databases and traces")
	fs.BoolVar(&o.tiny, "tiny", false, "run at a tiny data size (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "aimperf: need --workload (one of point-read, nested-report, txn-write, replica-read), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "aimperf: %s: %v\n", w.name, err)
		return 1
	}
	diag, _ := json.Marshal(map[string]any{"diagnostics": res.diag})
	fmt.Fprintln(stdout, string(diag))
	out, err := json.Marshal(res.report())
	if err != nil {
		fmt.Fprintf(stderr, "aimperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.correct {
		fmt.Fprintf(stderr, "aimperf: %s: wrong answers or failed ops: %v\n", w.name, res.firstErr)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct           bool
	attempted, failed int64
	firstErr          error
	metrics           map[string]metric
	diag              map[string]any
}

func (r *result) report() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// runWorkload sets up, warms, measures and checks one workload.
func runWorkload(w workload, o options, log io.Writer) (*result, error) {
	runDir, err := filepath.Abs(filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	sh := w.full
	if o.tiny {
		sh = w.tiny
	}

	// Set up setupRounds times on fresh directories; keep the last.
	var inst instance
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("db%d", i))
		t0 := time.Now()
		in, err := w.setup(dir, sh, o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRounds-1 {
			in.close()
			os.RemoveAll(dir)
			continue
		}
		inst = in
	}
	defer inst.close()

	measured := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		measured /= 2
	}
	warm := min(2*time.Second, measured/2)
	capOps := int(float64(w.opsPerSec) * measured.Seconds())
	logs := make([]*clientLog, inst.clients())
	for c := range logs {
		logs[c] = newClientLog(capOps)
	}

	fmt.Fprintf(log, "aimperf: %s seed %d: setup %.3fs (median of %d), warming %s\n", w.name, o.seed, median(setups), setupRounds, warm)
	freeMemory()
	if wr, _, _, _ := runPhase(inst, logs, warm, false); wr.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", wr.failed, wr.attempted, wr.firstErr)
	}
	r0, c0, c1, bg0 := runPhase(inst, logs, measured, false)

	res := &result{metrics: map[string]metric{}}
	res.attempted = r0.attempted + bg0.attempted
	res.failed = r0.failed + bg0.failed
	res.firstErr = errors.Join(r0.firstErr, bg0.firstErr)

	var r1 phaseResult
	var c2, c3 counters
	var bg1 bgResult
	var catchup time.Duration
	var finTr *tracer
	var remote, local []int64
	if o.trace {
		r1, c2, c3, bg1 = runPhase(inst, logs, measured, true)
		res.attempted += r1.attempted + bg1.attempted
		res.failed += r1.failed + bg1.failed
		res.firstErr = errors.Join(res.firstErr, r1.firstErr, bg1.firstErr)
		if remote, local, err = inst.pairs(time.Now().Add(measured / 5)); err != nil {
			res.failed++
			res.firstErr = errors.Join(res.firstErr, fmt.Errorf("wire pairing: %w", err))
		}
		finTr = newTracer(time.Now())
	}
	if catchup, err = inst.finish(finTr); err != nil {
		res.failed++
		res.firstErr = errors.Join(res.firstErr, err)
	}
	res.correct = res.failed == 0

	ops := r0.ops
	if ops == 0 {
		return nil, fmt.Errorf("no op completed in %s: %v", measured, res.firstErr)
	}
	steal := stealPct(c0.host, c1.host)
	res.diag = map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "traced": o.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"latency_samples": len(r0.lat), "tail_percentile": w.tail * 100,
		"samples_beyond_tail":    int(float64(len(r0.lat)) * (1 - w.tail)),
		"window_ops":             r0.windowStat(func(w window) float64 { return float64(w.ops) }),
		"window_steal_pct":       r0.windowStat(func(w window) float64 { return w.steal }),
		"window_speed":           r0.windowStat(func(w window) float64 { return w.speed }),
		"reference_speed":        refSpeed,
		"raw_ops_per_s":          float64(ops) / r0.active.Seconds(),
		"gc_cycles":              c1.gcCycles - c0.gcCycles - r0.forcedGCs(),
		"host_steal_pct":         steal,
		"steal_rejected_windows": len(r0.wins) - len(r0.kept),
		"kept_windows":           r0.kept,
		"setup_s_rounds":         setups,
		"background_commits":     bg0.commits,
		"wrong_answers":          r0.wrong + r1.wrong,
		"writer_late_ms_max":     float64(bg0.lateMax) / 1e6,
	}
	for k, v := range inst.info() {
		res.diag[k] = v
	}
	fmt.Fprintf(log, "aimperf: %s: %d ops, %d failed, steal %.1f%%, %d GC cycles\n", w.name, ops, res.failed, steal, c1.gcCycles-c0.gcCycles-r0.forcedGCs())

	if !o.trace {
		res.set("setup_s", "s", median(setups))
		res.set("ops_per_s", "ops/s", r0.opsPerSec())
		res.set("rows_per_s", "rows/s", r0.rowsPerSec())
		res.set("latency_p50_ms", "ms", r0.percentileMs(0.5))
		res.set("latency_tail_ms", "ms", r0.percentileMs(w.tail))
		res.set("cpu_ms_per_op", "ms", r0.cpuMsPerOp())
		res.set("peak_rss_mb", "MiB", r0.peakRSS())
		res.set("space_amp", "ratio", inst.spaceAmp())
		return res, nil
	}

	if err := writeTrace(filepath.Join(o.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)),
		w.name, o.seed, append(r1.spans, finTr.spans)); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	layerMetrics(res, r0, r1, c2, c3, bg1, catchup, remote, local)
	return res, nil
}

// layerMetrics fills the per-layer metrics from the traced phase r1
// (counters c2→c3) and the untraced phase r0 it is compared with.
func layerMetrics(res *result, r0, r1 phaseResult, c2, c3 counters, bgr bgResult, catchup time.Duration, remote, local []int64) {
	ops := float64(max(r1.ops, 1))
	secs := r1.active.Seconds()
	per := func(d uint64) float64 { return float64(d) / ops }
	ratio := func(a, b uint64, empty float64) float64 {
		if b == 0 {
			return empty
		}
		return float64(a) / float64(b)
	}
	st := summarize(r1.spans)

	wire := 0.0
	if len(remote) > 0 {
		wire = (medianNs(remote) - medianNs(local)) / 1e3
	}
	res.set("netserver.wire_us_per_op", "us", wire)
	res.set("netserver.bytes_per_op", "bytes", per(c3.net.BytesIn+c3.net.BytesOut-c2.net.BytesIn-c2.net.BytesOut))
	res.set("netserver.queue_waits_per_op", "count", per(c3.net.QueueWaits-c2.net.QueueWaits))
	res.set("netserver.sheds", "count", float64(c3.net.ShedStmts+c3.net.ShedSessions-c2.net.ShedStmts-c2.net.ShedSessions))

	res.set("sql.parses_per_op", "count", per(c3.parsed-c2.parsed))
	res.set("plan.binds_per_op", "count", per(c3.binds-c2.binds))
	res.set("plan.planner_runs_per_op", "count", per(c3.chooses-c2.chooses))
	hits, misses := c3.plans.Hits-c2.plans.Hits, c3.plans.Misses-c2.plans.Misses
	// With no cache lookup and no bind, every execution reused a plan.
	res.set("plan.cache_hit_ratio", "ratio", ratio(hits, hits+misses, map[bool]float64{true: 1, false: 0}[c3.binds == c2.binds]))

	open := []uint8{spanNetQuery, spanEngQuery, spanReplQuery}
	next := []uint8{spanNetNext, spanEngNext, spanReplNext}
	var firstNs, nFirst, nextNs, rows int64
	for _, n := range next {
		firstNs += st.firstRow[n]
		nFirst += st.nFirst[n]
		nextNs += st.total[n]
		rows += st.rows[n]
	}
	res.set("exec.open_ms", "ms", st.meanMs(open...))
	firstRow := 0.0
	if nFirst > 0 {
		firstRow = st.meanMs(open...) + float64(firstNs)/float64(nFirst)/1e6
	}
	res.set("exec.first_row_ms", "ms", firstRow)
	res.set("exec.next_us_per_row", "us", ratio(uint64(nextNs), uint64(rows), 0)/1e3)

	txnRead, txnUpdate := 0.0, 0.0
	if st.n[spanNetBegin] > 0 {
		txnRead = float64(st.total[spanNetQuery]+st.total[spanNetNext]+st.total[spanNetClose]) / float64(st.n[spanNetBegin]) / 1e6
		txnUpdate = st.meanMs(spanNetExec)
	}
	res.set("engine.begin_ms", "ms", st.meanMs(spanNetBegin))
	res.set("engine.txn_read_ms", "ms", txnRead)
	res.set("engine.txn_update_ms", "ms", txnUpdate)
	res.set("engine.commit_ms", "ms", st.meanMs(spanNetCommit))
	res.set("engine.conflicts", "count", float64(r1.conflicts))

	fetches := c3.pool.Fetches - c2.pool.Fetches
	res.set("buffer.fetches_per_op", "count", per(fetches))
	res.set("buffer.hit_ratio", "ratio", ratio(c3.pool.Hits-c2.pool.Hits, fetches, 1))
	res.set("buffer.reads_per_op", "count", per(c3.pool.Reads-c2.pool.Reads))
	res.set("buffer.writes_per_op", "count", per(c3.pool.Writes-c2.pool.Writes))

	decodes := c3.decodes - c2.decodes
	res.set("subtuple.decodes_per_op", "count", per(decodes))
	res.set("subtuple.decodes_per_row", "count", ratio(decodes, uint64(r1.rows), 0))

	commits := uint64(r1.commits + bgr.commits)
	syncs := c3.walSyncs - c2.walSyncs
	res.set("wal.commits_per_fsync", "ratio", ratio(commits, syncs, 0))
	res.set("wal.bytes_per_commit", "bytes", ratio(c3.walEnd-c2.walEnd, commits, 0))
	res.set("wal.fsyncs_per_s", "1/s", float64(syncs)/secs)

	res.set("repl.lag_bytes_p99", "bytes", bgr.lagP99)
	res.set("repl.groups_applied_per_s", "1/s", float64(c3.repl.GroupsApplied-c2.repl.GroupsApplied)/secs)
	res.set("repl.catchup_ms", "ms", float64(catchup)/1e6)
	res.set("repl.snapshots_taken", "count", float64(c3.repl.SnapshotsTaken-c2.repl.SnapshotsTaken))
	res.set("writer.due_latency_p99_ms", "ms", quantile(bgr.dueLat, 0.99)/1e6)
	res.set("writer.late_ms_max", "ms", float64(bgr.lateMax)/1e6)

	res.set("gc.cycles_per_s", "1/s", float64(c3.gcCycles-c2.gcCycles-r1.forcedGCs())/secs)
	res.set("mem.alloc_bytes_per_op", "bytes", per(c3.allocB-c2.allocB))
	res.set("mem.allocs_per_op", "count", per(c3.allocN-c2.allocN))
	res.set("host.steal_pct", "%", stealPct(c2.host, c3.host))

	res.set("failure_ratio", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))

	untraced := r0.opsPerSec()
	res.set("trace.overhead_pct", "%", 100*(untraced-r1.opsPerSec())/untraced)
	res.set("trace.spans", "count", float64(st.count))
	layers := append([]string(nil), traceLayers...)
	sort.Strings(layers)
	for _, l := range layers {
		res.set("trace.self_us_per_op."+l, "us", float64(st.self[l])/ops/1e3)
	}
}
