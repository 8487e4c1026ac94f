package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Each wraps one call the benchmark makes into a layer's
// public functions; spanOp is the root of one benchmark op.
const (
	spanOp uint8 = iota
	spanNetBegin
	spanNetQuery
	spanNetNext
	spanNetClose
	spanNetExec
	spanNetCommit
	spanEngQuery
	spanEngNext
	spanEngClose
	spanEngExec
	spanReplQuery
	spanReplNext
	spanReplClose
	spanReplWait
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op",
	"aimnet.Conn.Exec(BEGIN)", "aimnet.Stmt.Query", "aimnet.Rows.Next", "aimnet.Rows.Close",
	"aimnet.Stmt.Exec", "aimnet.Conn.Exec(COMMIT)",
	"engine.QueryRows", "engine.Rows.Next", "engine.Rows.Close", "engine.PreparedStmt.Exec",
	"follower.QueryRows", "follower.Rows.Next", "follower.Rows.Close", "repl.Follower.WaitApplied",
}

// spanLayer groups span names into the layers whose self time the
// traced run reports.
var spanLayer = [numSpanNames]string{
	"bench",
	"aimnet", "aimnet", "aimnet", "aimnet", "aimnet", "aimnet",
	"engine", "engine", "engine", "engine",
	"replica", "replica", "replica", "replica",
}

var traceLayers = []string{"bench", "aimnet", "engine", "replica"}

// span is one timed call. A Rows.Next span covers a whole drain loop:
// first marks when the first row arrived and rows counts the rows, so
// a result of thousands of rows costs one record, not thousands.
type span struct {
	name   uint8
	parent int32 // index in the same tracer, -1 for a root
	op     uint32
	rows   int32
	start  int64 // ns since the tracer's epoch
	end    int64
	first  int64
}

// tracer keeps one client goroutine's spans in memory. A nil tracer
// records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	epoch time.Time
	op    uint32
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() int32 {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(spanOp, -1)
}

func (t *tracer) begin(name uint8, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// firstRow marks span i's first row.
func (t *tracer) firstRow(i int32) {
	if t == nil {
		return
	}
	t.spans[i].first = int64(time.Since(t.epoch))
}

func (t *tracer) endRows(i int32, rows int64) {
	if t == nil {
		return
	}
	t.spans[i].rows = int32(rows)
	t.end(i)
}

// spanStats summarizes the spans of one traced phase.
type spanStats struct {
	count    int
	ops      int
	total    [numSpanNames]int64 // summed durations, ns
	n        [numSpanNames]int64 // span counts
	rows     [numSpanNames]int64
	firstRow [numSpanNames]int64 // summed start→first-row, ns
	nFirst   [numSpanNames]int64
	self     map[string]int64 // summed self time per layer, ns
}

// summarize computes per-name totals and per-layer self times. A
// span's self time is its duration minus the time its children cover;
// children of one parent never overlap (one client issues one call at
// a time), so the covered time is the sum of their durations.
func summarize(perClient [][]span) spanStats {
	st := spanStats{self: map[string]int64{}}
	for _, spans := range perClient {
		childTime := make([]int64, len(spans))
		for _, s := range spans {
			if s.parent >= 0 {
				childTime[s.parent] += s.end - s.start
			}
		}
		for i, s := range spans {
			d := s.end - s.start
			st.count++
			if s.name == spanOp {
				st.ops++
			}
			st.total[s.name] += d
			st.n[s.name]++
			st.rows[s.name] += int64(s.rows)
			if s.first > 0 {
				st.firstRow[s.name] += s.first - s.start
				st.nFirst[s.name]++
			}
			st.self[spanLayer[s.name]] += d - childTime[i]
		}
	}
	return st
}

// meanMs is the mean duration of the named spans, in ms.
func (st spanStats) meanMs(names ...uint8) float64 {
	var tot, n int64
	for _, nm := range names {
		tot += st.total[nm]
		n += st.n[nm]
	}
	if n == 0 {
		return 0
	}
	return float64(tot) / float64(n) / 1e6
}

// maxSpansWritten caps the trace file; the summary always covers
// every span recorded.
const maxSpansWritten = 50000

// writeTrace writes the spans as JSON lines: a header, then one line
// per span with its id (client.index), parent id, op id and times in
// µs since the traced phase began.
func writeTrace(path string, workload string, seed int64, perClient [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	total := 0
	for _, s := range perClient {
		total += len(s)
	}
	hdr, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "spans": total,
		"written": min(total, maxSpansWritten), "time_unit": "us",
	})
	w.Write(hdr)
	w.WriteByte('\n')
	written := 0
	for c, spans := range perClient {
		for i, s := range spans {
			if written == maxSpansWritten {
				break
			}
			parent := "null"
			if s.parent >= 0 {
				parent = fmt.Sprintf(`"%d.%d"`, c, s.parent)
			}
			fmt.Fprintf(w, `{"id":"%d.%d","parent":%s,"op":"%d.%d","name":%q,"start":%.3f,"end":%.3f,"rows":%d}`+"\n",
				c, i, parent, c, s.op, spanNames[s.name], float64(s.start)/1e3, float64(s.end)/1e3, s.rows)
			written++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
