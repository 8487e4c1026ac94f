package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/aimnet"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/netserver"
	"repro/internal/repl"
	"repro/internal/testdata"
)

// workload is one benchmark workload: its data shape, the percentile
// reported as latency_tail_ms, and how to build a fresh instance.
type workload struct {
	name string
	tail float64
	full shape
	tiny shape
	// opsPerSec bounds one client's op rate; it sizes the latency store
	// allocated before timing.
	opsPerSec int
	setup     func(dir string, sh shape, seed int64) (instance, error)
}

var workloads = []workload{
	{
		name: "point-read", tail: 0.99, opsPerSec: 40000,
		full:  shape{depts: 1000, projs: 4, members: 6, equip: 3, poolPages: 4096},
		tiny:  shape{depts: 20, projs: 2, members: 3, equip: 2, poolPages: 256},
		setup: setupPointRead,
	},
	{
		name: "nested-report", tail: 0.90, opsPerSec: 2000,
		full:  shape{depts: 64, projs: 6, members: 8, equip: 4, poolPages: 8},
		tiny:  shape{depts: 8, projs: 2, members: 3, equip: 2, poolPages: 4},
		setup: setupNestedReport,
	},
	{
		name: "txn-write", tail: 0.90, opsPerSec: 5000,
		full:  shape{depts: 256, projs: 4, members: 6, equip: 3, poolPages: 1024},
		tiny:  shape{depts: 8, projs: 2, members: 3, equip: 2, poolPages: 256},
		setup: setupTxnWrite,
	},
	{
		name: "replica-read", tail: 0.90, opsPerSec: 2000,
		full:  shape{depts: 64, projs: 4, members: 6, equip: 3, poolPages: 1024},
		tiny:  shape{depts: 8, projs: 2, members: 3, equip: 2, poolPages: 256},
		setup: setupReplicaRead,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one freshly set-up database with its clients.
type instance interface {
	clients() int
	// op runs one op as client c and records it in l.
	op(c int, l *clientLog)
	// background runs beside the clients of a phase, inside the
	// phase's windows, until the phase is over.
	background(g *gate) bgResult
	counters() counters
	// pairs times ops over the wire and the same statements in
	// process, alternately, until the deadline; nil when the workload
	// has no wire.
	pairs(deadline time.Time) (remote, local []int64, err error)
	// finish runs the final answer check once the phases are over and
	// reports how long the follower took to catch up, if there is one.
	finish(tr *tracer) (catchup time.Duration, err error)
	info() map[string]any
	spaceAmp() float64
	close()
}

// bgResult is what a phase's background work reports.
type bgResult struct {
	commits, attempted, failed int64
	firstErr                   error
	dueLat                     []int64 // sorted, ns
	lateMax                    time.Duration
	lagP99                     float64
}

// base holds what every instance shares and the defaults of the
// optional parts of instance.
type base struct {
	amp  float64
	rngs []*rand.Rand
}

func newBase(amp float64, seed int64, clients int) base {
	b := base{amp: amp}
	for c := 0; c < clients; c++ {
		b.rngs = append(b.rngs, rand.New(rand.NewSource(seed*1000+int64(c)+1)))
	}
	return b
}

func (b *base) clients() int                              { return len(b.rngs) }
func (b *base) background(*gate) bgResult                 { return bgResult{} }
func (b *base) pairs(time.Time) ([]int64, []int64, error) { return nil, nil, nil }
func (b *base) spaceAmp() float64                         { return b.amp }

// rowStream is the cursor surface aimnet.Rows and engine.Rows share.
type rowStream interface {
	Next() bool
	Tuple() model.Tuple
	Err() error
	Close() error
}

// drain reads rows to the end inside one Next span, then closes them
// inside a Close span. It keeps the first row for the caller's check.
func drain(tr *tracer, parent int32, nextSpan, closeSpan uint8, rows rowStream) (n int64, first model.Tuple, err error) {
	sp := tr.begin(nextSpan, parent)
	for rows.Next() {
		if n == 0 {
			tr.firstRow(sp)
			first = rows.Tuple()
		}
		n++
	}
	tr.endRows(sp, n)
	err = rows.Err()
	sc := tr.begin(closeSpan, parent)
	if cerr := rows.Close(); err == nil {
		err = cerr
	}
	tr.end(sc)
	return n, first, err
}

func dial(srv *netserver.Server, n int) ([]*aimnet.Conn, error) {
	var conns []*aimnet.Conn
	for i := 0; i < n; i++ {
		c, err := aimnet.Dial(srv.Addr(), aimnet.Options{Client: "aimperf", MaxRetries: -1})
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

var bg = context.Background()

// ---------------------------------------------------------------- point-read

const pointQuery = `SELECT x.DNO, x.MGRNO, x.BUDGET, x.PROJECTS FROM x IN DEPARTMENTS WHERE x.DNO = ?`

// pointRead: two aimnet connections run a prepared, index-probed point
// SELECT of one department with its nested PROJECTS.
type pointRead struct {
	base
	db    *engine.DB
	srv   *netserver.Server
	conns []*aimnet.Conn
	stmts []*aimnet.Stmt
	local *engine.PreparedStmt
	keys  []int64
	want  map[int64]model.Tuple
	pages int64
}

func setupPointRead(dir string, sh shape, seed int64) (instance, error) {
	data := testdata.GenDepartments(sh.gen(seed))
	db, err := openDB(dir, sh.poolPages)
	if err != nil {
		return nil, err
	}
	w := &pointRead{db: db, keys: deptKeys(data), want: map[int64]model.Tuple{}}
	if err := w.init(dir, seed, data); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *pointRead) init(dir string, seed int64, data *model.Table) error {
	if err := loadDepartments(w.db, data, false, true); err != nil {
		return err
	}
	amp, err := spaceAmp(dir, data)
	if err != nil {
		return err
	}
	w.base = newBase(amp, seed, 2)
	w.pages = segmentPages(dir)
	for _, t := range data.Tuples {
		w.want[int64(t[0].(model.Int))] = model.Tuple{t[0], t[1], t[3], t[2]}
	}
	if w.srv, err = startServer(w.db); err != nil {
		return err
	}
	if w.conns, err = dial(w.srv, 2); err != nil {
		return err
	}
	for _, c := range w.conns {
		st, err := c.Prepare(bg, pointQuery)
		if err != nil {
			return err
		}
		w.stmts = append(w.stmts, st)
	}
	w.local, err = w.db.Prepare(pointQuery)
	return err
}

func (w *pointRead) op(c int, l *clientLog) {
	dno := w.keys[w.rngs[c].Intn(len(w.keys))]
	tr := l.tr
	root := tr.beginOp()
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin(spanNetQuery, root)
	rows, err := w.stmts[c].Query(bg, aimnet.Int(dno))
	tr.end(sp)
	if err != nil {
		l.fail(err, false)
		return
	}
	n, first, err := drain(tr, root, spanNetNext, spanNetClose, rows)
	if err != nil {
		l.fail(err, false)
		return
	}
	if n != 1 || !model.TupleEqual(first, w.want[dno]) {
		l.fail(fmt.Errorf("point-read: DNO %d returned %d row(s), first %v", dno, n, first), true)
		return
	}
	l.done(t0, n)
}

func (w *pointRead) pairs(deadline time.Time) (remote, local []int64, err error) {
	rng := rand.New(rand.NewSource(7))
	for time.Now().Before(deadline) {
		dno := aimnet.Int(w.keys[rng.Intn(len(w.keys))])
		t0 := time.Now()
		rows, err := w.stmts[0].Query(bg, dno)
		if err != nil {
			return nil, nil, err
		}
		if _, _, err := drain(nil, -1, 0, 0, rows); err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		lrows, err := w.local.QueryRows(dno)
		if err != nil {
			return nil, nil, err
		}
		if _, _, err := drain(nil, -1, 0, 0, lrows); err != nil {
			return nil, nil, err
		}
		remote = append(remote, int64(t1.Sub(t0)))
		local = append(local, int64(time.Since(t1)))
	}
	return remote, local, nil
}

func (w *pointRead) counters() counters {
	return snapshot(w.db, nil, w.srv.Stats)
}

func (w *pointRead) finish(*tracer) (time.Duration, error) { return 0, nil }

func (w *pointRead) info() map[string]any {
	return map[string]any{"departments": len(w.keys), "table_pages": w.pages, "clients": 2}
}

func (w *pointRead) close() {
	for _, c := range w.conns {
		c.Close()
	}
	if w.srv != nil {
		stopServer(w.srv)
	}
	w.db.Close()
}

// ------------------------------------------------------------- nested-report

// nestedQueries are the paper's Examples 2, 4, 5 and 6 (§3).
var nestedQueries = []string{
	`SELECT x.DNO, x.MGRNO,
       PROJECTS = (SELECT y.PNO, y.PNAME,
                          MEMBERS = (SELECT z.EMPNO, z.FUNCTION FROM z IN y.MEMBERS)
                   FROM y IN x.PROJECTS),
       x.BUDGET,
       EQUIP = (SELECT v.QU, v.TYPE FROM v IN x.EQUIP)
FROM x IN DEPARTMENTS`,
	`SELECT x.DNO, x.MGRNO, y.PNO, y.PNAME, z.EMPNO, z.FUNCTION
FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`,
	`SELECT x.DNO, x.MGRNO, x.BUDGET
FROM x IN DEPARTMENTS
WHERE EXISTS y IN x.EQUIP: y.TYPE = 'PC/AT'`,
	`SELECT x.DNO, x.MGRNO, x.BUDGET
FROM x IN DEPARTMENTS
WHERE ALL y IN x.PROJECTS ALL z IN y.MEMBERS: z.FUNCTION = 'Consultant'`,
}

// nestedReport: one in-process client streams E2, E4, E5 and E6 over a
// table several times larger than the buffer pool.
type nestedReport struct {
	base
	db    *engine.DB
	want  [4]int64
	depts int
	pages int64
	pool  int
}

func setupNestedReport(dir string, sh shape, seed int64) (instance, error) {
	data := testdata.GenDepartments(sh.gen(seed))
	db, err := openDB(dir, sh.poolPages)
	if err != nil {
		return nil, err
	}
	w := &nestedReport{db: db, want: nestedCounts(data), depts: len(data.Tuples), pool: sh.poolPages}
	if err := loadDepartments(db, data, false, false); err != nil {
		db.Close()
		return nil, err
	}
	amp, err := spaceAmp(dir, data)
	if err != nil {
		db.Close()
		return nil, err
	}
	w.base = newBase(amp, seed, 1)
	w.pages = segmentPages(dir)
	return w, nil
}

// nestedCounts computes the row count of each nested query from the
// generated table.
func nestedCounts(data *model.Table) [4]int64 {
	var c [4]int64
	for _, d := range data.Tuples {
		c[0]++
		allConsultants := true
		for _, p := range d[2].(*model.Table).Tuples {
			for _, m := range p[2].(*model.Table).Tuples {
				c[1]++
				if m[1].(model.Str) != "Consultant" {
					allConsultants = false
				}
			}
		}
		for _, e := range d[4].(*model.Table).Tuples {
			if e[1].(model.Str) == "PC/AT" {
				c[2]++
				break
			}
		}
		if allConsultants {
			c[3]++
		}
	}
	return c
}

func (w *nestedReport) op(_ int, l *clientLog) {
	tr := l.tr
	root := tr.beginOp()
	defer tr.end(root)
	t0 := time.Now()
	var total int64
	for i, q := range nestedQueries {
		sp := tr.begin(spanEngQuery, root)
		rows, err := w.db.QueryRows(q)
		tr.end(sp)
		if err != nil {
			l.fail(err, false)
			return
		}
		n, _, err := drain(tr, root, spanEngNext, spanEngClose, rows)
		if err != nil {
			l.fail(err, false)
			return
		}
		if n != w.want[i] {
			l.fail(fmt.Errorf("nested-report: query E%d returned %d rows, want %d", []int{2, 4, 5, 6}[i], n, w.want[i]), true)
			return
		}
		total += n
	}
	l.done(t0, total)
}

func (w *nestedReport) counters() counters { return snapshot(w.db, nil, nil) }

func (w *nestedReport) finish(*tracer) (time.Duration, error) { return 0, nil }

func (w *nestedReport) info() map[string]any {
	return map[string]any{"departments": w.depts, "table_pages": w.pages, "pool_pages": w.pool,
		"rows_per_pass": w.want[0] + w.want[1] + w.want[2] + w.want[3], "clients": 1}
}

func (w *nestedReport) close() { w.db.Close() }

// ----------------------------------------------------------------- txn-write

const (
	txnRead      = `SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS WHERE x.DNO = ?`
	txnBudget    = `UPDATE x IN DEPARTMENTS SET BUDGET = x.BUDGET + 1 WHERE x.DNO = ?`
	txnFunction  = `UPDATE z FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS SET FUNCTION = ? WHERE x.DNO = ? AND z.EMPNO = ?`
	replicaWrite = txnBudget
)

var memberFunctions = []string{"Leader", "Staff", "Secretary", "Engineer", "Analyst"}

// txnClient is one txn-write client's key partition and the state its
// acknowledged commits imply; only that client touches it.
type txnClient struct {
	conn   *aimnet.Conn
	stmts  [3]*aimnet.Stmt
	keys   []int64
	budget map[int64]int64
	fn     map[int64]string
	seq    int
}

// txnWrite: one closed loop alternates between two aimnet connections,
// each with its own key partition, and runs BEGIN, a keyed read, two
// keyed UPDATEs (an atomic attribute and a nested member) and COMMIT on
// a VERSIONED table. One loop rather than one per connection keeps a
// core free for the server's goroutines and the GC, so an op's latency
// is its own work rather than a wait for a CPU.
type txnWrite struct {
	base
	db     *engine.DB
	srv    *netserver.Server
	cl     []*txnClient
	local  [3]*engine.PreparedStmt
	member map[int64]int64 // DNO -> EMPNO of the member whose FUNCTION is updated
	depts  int
	pages  int64
	turn   int
}

func setupTxnWrite(dir string, sh shape, seed int64) (instance, error) {
	data := testdata.GenDepartments(sh.gen(seed))
	db, err := openDB(dir, sh.poolPages)
	if err != nil {
		return nil, err
	}
	w := &txnWrite{db: db, member: map[int64]int64{}, depts: len(data.Tuples)}
	if err := w.init(dir, seed, data); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *txnWrite) init(dir string, seed int64, data *model.Table) error {
	if err := loadDepartments(w.db, data, true, true); err != nil {
		return err
	}
	amp, err := spaceAmp(dir, data)
	if err != nil {
		return err
	}
	w.base = newBase(amp, seed, 2)
	w.pages = segmentPages(dir)
	for i := 0; i < 2; i++ {
		w.cl = append(w.cl, &txnClient{budget: map[int64]int64{}, fn: map[int64]string{}})
	}
	for i, t := range data.Tuples {
		dno := int64(t[0].(model.Int))
		m := t[2].(*model.Table).Tuples[0][2].(*model.Table).Tuples[0]
		w.member[dno] = int64(m[0].(model.Int))
		c := w.cl[i%2]
		c.keys = append(c.keys, dno)
		c.budget[dno] = int64(t[3].(model.Int))
		c.fn[dno] = string(m[1].(model.Str))
	}
	if w.srv, err = startServer(w.db); err != nil {
		return err
	}
	conns, err := dial(w.srv, 2)
	if err != nil {
		return err
	}
	for i, c := range w.cl {
		c.conn = conns[i]
		for j, q := range []string{txnRead, txnBudget, txnFunction} {
			if c.stmts[j], err = c.conn.Prepare(bg, q); err != nil {
				return err
			}
		}
	}
	for j, q := range []string{txnRead, txnBudget, txnFunction} {
		if w.local[j], err = w.db.Prepare(q); err != nil {
			return err
		}
	}
	return nil
}

// clients is 1: the single loop drives both connections.
func (w *txnWrite) clients() int { return 1 }

func (w *txnWrite) op(_ int, l *clientLog) {
	c := w.turn % len(w.cl)
	w.turn++
	cl := w.cl[c]
	dno := cl.keys[w.rngs[c].Intn(len(cl.keys))]
	fn := memberFunctions[cl.seq%len(memberFunctions)]
	cl.seq++
	tr := l.tr
	root := tr.beginOp()
	defer tr.end(root)
	t0 := time.Now()
	rows, err := w.remoteTxn(tr, root, cl, dno, fn)
	if err != nil {
		if errors.Is(err, engine.ErrWriteConflict) {
			l.conflicts++
		}
		var wrong *wrongAnswer
		l.fail(err, errors.As(err, &wrong))
		return
	}
	cl.budget[dno]++
	cl.fn[dno] = fn
	l.commits++
	l.done(t0, rows)
}

// wrongAnswer marks an op whose result contradicts the oracle.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return e.msg }

// remoteTxn runs one transaction over the wire, rolling back on any
// failure after BEGIN.
func (w *txnWrite) remoteTxn(tr *tracer, root int32, cl *txnClient, dno int64, fn string) (rows int64, err error) {
	sp := tr.begin(spanNetBegin, root)
	_, err = cl.conn.Exec(bg, "BEGIN")
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil && cl.conn.TxnOpen() {
			cl.conn.Exec(bg, "ROLLBACK")
		}
	}()
	sp = tr.begin(spanNetQuery, root)
	rs, err := cl.stmts[0].Query(bg, aimnet.Int(dno))
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	n, first, err := drain(tr, root, spanNetNext, spanNetClose, rs)
	if err != nil {
		return 0, err
	}
	if err := cl.checkRead(dno, n, first); err != nil {
		return 0, err
	}
	for _, x := range []struct {
		st   *aimnet.Stmt
		args []aimnet.Value
	}{
		{cl.stmts[1], []aimnet.Value{aimnet.Int(dno)}},
		{cl.stmts[2], []aimnet.Value{aimnet.Str(fn), aimnet.Int(dno), aimnet.Int(w.member[dno])}},
	} {
		sp = tr.begin(spanNetExec, root)
		res, err := x.st.Exec(bg, x.args...)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if res.Count != 1 {
			return 0, &wrongAnswer{fmt.Sprintf("txn-write: %q on DNO %d updated %d rows", x.st.Text(), dno, res.Count)}
		}
	}
	sp = tr.begin(spanNetCommit, root)
	_, err = cl.conn.Exec(bg, "COMMIT")
	tr.end(sp)
	return n, err
}

func (cl *txnClient) checkRead(dno, n int64, first model.Tuple) error {
	if n != 1 || int64(first[1].(model.Int)) != cl.budget[dno] {
		return &wrongAnswer{fmt.Sprintf("txn-write: read of DNO %d returned %d row(s) %v, want BUDGET %d", dno, n, first, cl.budget[dno])}
	}
	return nil
}

// pairs alternates the remote transaction with the same statements run
// in process by engine.Txn on client 0's partition.
func (w *txnWrite) pairs(deadline time.Time) (remote, local []int64, err error) {
	cl := w.cl[0]
	rng := rand.New(rand.NewSource(7))
	for i := 0; time.Now().Before(deadline); i++ {
		dno := cl.keys[rng.Intn(len(cl.keys))]
		fn := memberFunctions[i%len(memberFunctions)]
		t0 := time.Now()
		if _, err := w.remoteTxn(nil, -1, cl, dno, fn); err != nil {
			return nil, nil, err
		}
		cl.budget[dno]++
		cl.fn[dno] = fn
		t1 := time.Now()
		if err := w.localTxn(cl, dno, fn); err != nil {
			return nil, nil, err
		}
		cl.budget[dno]++
		remote = append(remote, int64(t1.Sub(t0)))
		local = append(local, int64(time.Since(t1)))
	}
	return remote, local, nil
}

func (w *txnWrite) localTxn(cl *txnClient, dno int64, fn string) (err error) {
	tx, err := w.db.Begin()
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tx.Rollback()
		}
	}()
	rows, err := tx.QueryRowsPrepared(bg, w.local[0], model.Int(dno))
	if err != nil {
		return err
	}
	n, first, err := drain(nil, -1, 0, 0, rows)
	if err != nil {
		return err
	}
	if err := cl.checkRead(dno, n, first); err != nil {
		return err
	}
	if _, err := tx.ExecPrepared(bg, w.local[1], model.Int(dno)); err != nil {
		return err
	}
	if _, err := tx.ExecPrepared(bg, w.local[2], model.Str(fn), model.Int(dno), model.Int(w.member[dno])); err != nil {
		return err
	}
	return tx.Commit()
}

func (w *txnWrite) counters() counters { return snapshot(w.db, nil, w.srv.Stats) }

// finish checks every department's final BUDGET and updated member
// FUNCTION against the acknowledged commits.
func (w *txnWrite) finish(*tracer) (time.Duration, error) {
	return 0, w.check()
}

func (w *txnWrite) check() error {
	budgets, _, err := w.db.Query(`SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`)
	if err != nil {
		return err
	}
	if len(budgets.Tuples) != w.depts {
		return fmt.Errorf("txn-write: %d departments after the run, want %d", len(budgets.Tuples), w.depts)
	}
	for _, t := range budgets.Tuples {
		dno, b := int64(t[0].(model.Int)), int64(t[1].(model.Int))
		if want := w.owner(dno).budget[dno]; b != want {
			return fmt.Errorf("txn-write: DNO %d final BUDGET %d, want %d", dno, b, want)
		}
	}
	members, _, err := w.db.Query(`SELECT x.DNO, z.EMPNO, z.FUNCTION FROM x IN DEPARTMENTS, y IN x.PROJECTS, z IN y.MEMBERS`)
	if err != nil {
		return err
	}
	for _, t := range members.Tuples {
		dno, emp := int64(t[0].(model.Int)), int64(t[1].(model.Int))
		if emp != w.member[dno] {
			continue
		}
		if want := w.owner(dno).fn[dno]; string(t[2].(model.Str)) != want {
			return fmt.Errorf("txn-write: DNO %d member %d FUNCTION %v, want %s", dno, emp, t[2], want)
		}
	}
	return nil
}

// owner is the client whose partition holds dno.
func (w *txnWrite) owner(dno int64) *txnClient {
	if _, ok := w.cl[0].budget[dno]; ok {
		return w.cl[0]
	}
	return w.cl[1]
}

func (w *txnWrite) info() map[string]any {
	return map[string]any{"departments": w.depts, "table_pages": w.pages, "clients": 1, "connections": 2}
}

func (w *txnWrite) close() {
	for _, c := range w.cl {
		if c.conn != nil {
			c.conn.Close()
		}
	}
	if w.srv != nil {
		stopServer(w.srv)
	}
	w.db.Close()
}

// -------------------------------------------------------------- replica-read

// replicaRate is the open-loop writer's commit rate on the primary.
const replicaRate = 100

// replicaBatch is how many point reads make one replica-read op. A
// single read takes about 0.15 ms, far shorter than the slices in which
// a shared host steals CPU, so a run's median read is untouched by
// steal while the calibration kernel that scales timings is not; a
// batch lasts long enough (~25 ms) that every op absorbs its share of
// steal the way the kernel does (README.md, "Op length").
const replicaBatch = 128

// replicaRead: an open-loop writer commits keyed BUDGET increments to
// the primary, which ships its WAL to one follower; one closed-loop
// reader runs batches of replicaBatch prepared point reads on the
// follower.
type replicaRead struct {
	base
	primary *engine.DB
	srv     *netserver.Server
	f       *repl.Follower
	fdb     *engine.DB
	write   *engine.PreparedStmt
	read    *engine.PreparedStmt
	keys    []int64
	budget  map[int64]int64 // primary state implied by acknowledged writes
	seen    map[int64]int64 // highest BUDGET the reader has seen per key
	wrng    *rand.Rand
	lags    []uint64
	pages   int64
}

func setupReplicaRead(dir string, sh shape, seed int64) (instance, error) {
	data := testdata.GenDepartments(sh.gen(seed))
	primary, err := openDB(filepath.Join(dir, "primary"), sh.poolPages)
	if err != nil {
		return nil, err
	}
	w := &replicaRead{primary: primary, keys: deptKeys(data), budget: map[int64]int64{}, seen: map[int64]int64{},
		wrng: rand.New(rand.NewSource(seed*1000 + 999)), lags: make([]uint64, 0, 1<<16)}
	if err := w.init(dir, sh, seed, data); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *replicaRead) init(dir string, sh shape, seed int64, data *model.Table) error {
	if err := loadDepartments(w.primary, data, true, true); err != nil {
		return err
	}
	amp, err := spaceAmp(filepath.Join(dir, "primary"), data)
	if err != nil {
		return err
	}
	w.base = newBase(amp, seed, 1)
	w.pages = segmentPages(filepath.Join(dir, "primary"))
	for _, t := range data.Tuples {
		w.budget[int64(t[0].(model.Int))] = int64(t[3].(model.Int))
	}
	if w.srv, err = startServer(w.primary); err != nil {
		return err
	}
	w.f, err = repl.Start(repl.Options{Addr: w.srv.Addr(), Dir: filepath.Join(dir, "follower"),
		Engine: engine.Options{PoolPages: sh.poolPages}})
	if err != nil {
		return err
	}
	if err := w.f.WaitApplied(w.primary.Log().End(), 60*time.Second); err != nil {
		return err
	}
	w.fdb = w.f.DB()
	if w.write, err = w.primary.Prepare(replicaWrite); err != nil {
		return err
	}
	w.read, err = w.fdb.Prepare(txnRead)
	return err
}

func (w *replicaRead) op(_ int, l *clientLog) {
	tr := l.tr
	root := tr.beginOp()
	defer tr.end(root)
	t0 := time.Now()
	for i := 0; i < replicaBatch; i++ {
		if err := w.read1(tr, root); err != nil {
			var wrong *wrongAnswer
			l.fail(err, errors.As(err, &wrong))
			return
		}
	}
	l.done(t0, replicaBatch)
}

// read1 reads one random department's BUDGET on the follower and
// checks that it did not go back.
func (w *replicaRead) read1(tr *tracer, root int32) error {
	dno := w.keys[w.rngs[0].Intn(len(w.keys))]
	sp := tr.begin(spanReplQuery, root)
	rows, err := w.read.QueryRows(model.Int(dno))
	tr.end(sp)
	if err != nil {
		return err
	}
	n, first, err := drain(tr, root, spanReplNext, spanReplClose, rows)
	if err != nil {
		return err
	}
	if n != 1 {
		return &wrongAnswer{fmt.Sprintf("replica-read: DNO %d returned %d rows", dno, n)}
	}
	b := int64(first[1].(model.Int))
	if b < w.seen[dno] {
		return &wrongAnswer{fmt.Sprintf("replica-read: DNO %d BUDGET went back from %d to %d", dno, w.seen[dno], b)}
	}
	w.seen[dno] = b
	return nil
}

// background runs the open-loop writer and samples the follower's
// apply lag while the phase's windows are open. Commit i is due at
// active time i/replicaRate and its latency counts from that instant.
func (w *replicaRead) background(g *gate) bgResult {
	var r bgResult
	w.lags = w.lags[:0]
	interval := time.Second / replicaRate
	var nextLag time.Duration
	for i := 0; ; {
		if _, ok := g.enter(); !ok {
			break
		}
		now := g.activeNow()
		if now >= nextLag {
			w.lags = append(w.lags, w.fdb.ReplStats().LagBytes)
			nextLag = now + 2*time.Millisecond
		}
		due := time.Duration(i) * interval
		if now < due {
			g.leave()
			time.Sleep(min(due-now, 2*time.Millisecond))
			continue
		}
		i++
		r.lateMax = max(r.lateMax, now-due)
		dno := w.keys[w.wrng.Intn(len(w.keys))]
		r.attempted++
		res, err := w.write.Exec(model.Int(dno))
		if err == nil && res.Count != 1 {
			err = fmt.Errorf("replica-read: write to DNO %d updated %d rows", dno, res.Count)
		}
		if err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = err
			}
		} else {
			w.budget[dno]++
			r.commits++
			r.dueLat = append(r.dueLat, int64(g.activeNow()-due))
		}
		g.leave()
	}
	sortNs(r.dueLat)
	r.lagP99 = lagP99(w.lags)
	return r
}

func lagP99(v []uint64) float64 {
	s := make([]int64, len(v))
	for i, x := range v {
		s[i] = int64(x)
	}
	return quantile(sortNs(s), 0.99)
}

func (w *replicaRead) counters() counters { return snapshot(w.primary, w.fdb, w.srv.Stats) }

// finish waits for the follower to apply the primary's whole log, then
// checks that follower, primary and the acknowledged writes agree.
func (w *replicaRead) finish(tr *tracer) (time.Duration, error) {
	end := w.primary.Log().End()
	t0 := time.Now()
	sp := tr.begin(spanReplWait, -1)
	err := w.f.WaitApplied(end, 60*time.Second)
	tr.end(sp)
	catchup := time.Since(t0)
	if err != nil {
		return catchup, err
	}
	return catchup, w.check()
}

func (w *replicaRead) check() error {
	const q = `SELECT x.DNO, x.BUDGET FROM x IN DEPARTMENTS`
	prim, _, err := w.primary.Query(q)
	if err != nil {
		return err
	}
	foll, _, err := w.fdb.Query(q)
	if err != nil {
		return err
	}
	if !model.TableEqual(prim, foll) {
		return fmt.Errorf("replica-read: follower differs from primary after catch-up")
	}
	for _, t := range prim.Tuples {
		dno, b := int64(t[0].(model.Int)), int64(t[1].(model.Int))
		if b != w.budget[dno] {
			return fmt.Errorf("replica-read: DNO %d BUDGET %d, want %d from acknowledged writes", dno, b, w.budget[dno])
		}
	}
	return nil
}

func (w *replicaRead) info() map[string]any {
	return map[string]any{"departments": len(w.keys), "table_pages": w.pages, "clients": 1,
		"writer_commits_per_s": replicaRate}
}

func (w *replicaRead) close() {
	if w.f != nil {
		w.f.Close()
	}
	if w.srv != nil {
		stopServer(w.srv)
	}
	w.primary.Close()
}
