package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// The benchmark's own tracing. Spans are recorded around the benchmark's
// calls — the client side of each HTTP exchange, and the in-process replay
// of the public functions — kept in memory, and written out at the end as
// Chrome trace-event JSON plus a self-time table. A nil *recorder records
// nothing, which is how the untraced runs call the same code.

// span is one timed interval. Spans of one operation share a trace id.
type span struct {
	trace  int64
	id     int32
	parent int32 // 0 for a root
	name   string
	layer  string
	start  time.Time
	dur    time.Duration
}

type recorder struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its id (0 when r is nil).
func (r *recorder) add(trace int64, parent int32, layer, name string, start, end time.Time) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{trace: trace, id: id, parent: parent, name: name, layer: layer, start: start, dur: end.Sub(start)})
	return id
}

// open records a span whose end is set later by end, so its children can
// name it as their parent while it runs.
func (r *recorder) open(trace int64, layer, name string, start time.Time) int32 {
	return r.add(trace, 0, layer, name, start, start)
}

// end closes a span opened by open.
func (r *recorder) end(id int32, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.dur = end.Sub(s.start)
}

// graft records an obs span tree (an engine solve's phase spans) under
// parent, rebasing its offsets on the given start time.
func (r *recorder) graft(trace int64, parent int32, layer string, base time.Time, n *obs.SpanNode) {
	if r == nil || n == nil {
		return
	}
	start := base.Add(time.Duration(n.StartUs) * time.Microsecond)
	id := r.add(trace, parent, layer, n.Name, start, start.Add(time.Duration(n.DurationUs)*time.Microsecond))
	for _, c := range n.Children {
		r.graft(trace, id, layer, base, c)
	}
}

// selfTime is one row of the self-time table.
type selfTime struct {
	layer, name string
	count       int
	self        time.Duration
}

// selfTimes returns each span name's self time — its duration minus the
// part its children cover — summed over the recorded spans, largest first.
func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make([]time.Duration, len(r.spans)+1)
	for _, s := range r.spans {
		if s.parent > 0 {
			covered[s.parent] += s.dur
		}
	}
	rows := make(map[[2]string]*selfTime)
	for _, s := range r.spans {
		k := [2]string{s.layer, s.name}
		row := rows[k]
		if row == nil {
			row = &selfTime{layer: s.layer, name: s.name}
			rows[k] = row
		}
		row.count++
		if self := s.dur - covered[s.id]; self > 0 {
			row.self += self
		}
	}
	out := make([]selfTime, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSelfTimes prints the self-time table.
func writeSelfTimes(w io.Writer, rows []selfTime) {
	fmt.Fprintf(w, "%-8s %-22s %8s %12s %10s\n", "layer", "span", "count", "self_ms", "mean_ms")
	for _, row := range rows {
		fmt.Fprintf(w, "%-8s %-22s %8d %12.3f %10.4f\n", row.layer, row.name, row.count,
			ms(row.self), ms(row.self)/float64(row.count))
	}
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as Chrome trace-event JSON, one track per
// operation, timestamps relative to the first span.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var epoch time.Time
	for _, s := range r.spans {
		if epoch.IsZero() || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString("{\"traceEvents\":[\n")
	for i, s := range r.spans {
		if i > 0 {
			bw.WriteString(",")
		}
		ev := chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.trace,
			Args: map[string]any{"span": s.id, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// count returns the number of recorded spans.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
