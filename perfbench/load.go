package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/server"
)

// The load generator: one process, one HTTP connection per client, at most
// one request in flight per connection. Connection i is pinned to node
// i mod len(nodes).

// conn is one client connection to one node.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer // response body, reused across exchanges
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// exchange is one HTTP request/response with its client-side timings.
type exchange struct {
	status    int
	header    http.Header
	body      []byte // valid until the connection's next exchange
	reqBytes  int
	start     time.Time // request handed to the transport
	wrote     time.Time // request fully written
	firstByte time.Time // first response byte read
	done      time.Time // body fully read
}

// do performs one exchange. A non-nil stream callback consumes the body
// instead of buffering it (server-sent events).
func (c *conn) do(ctx context.Context, method, path, contentType, accept string, body []byte, stream func(io.Reader) error) (*exchange, error) {
	ex := &exchange{reqBytes: len(body)}
	trace := &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { ex.wrote = time.Now() },
		GotFirstResponseByte: func() { ex.firstByte = time.Now() },
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	ex.start = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	ex.status, ex.header = resp.StatusCode, resp.Header
	if stream != nil && resp.StatusCode == http.StatusOK {
		err = stream(resp.Body)
	} else {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		ex.body = c.buf.Bytes()
	}
	ex.done = time.Now()
	if ex.wrote.IsZero() {
		ex.wrote = ex.start
	}
	if ex.firstByte.IsZero() {
		ex.firstByte = ex.wrote
	}
	return ex, err
}

// request is a stream operation with its graphs and encoded body, built
// ahead of its due time.
type request struct {
	op     op
	graphs []*graphInfo // parallel to op.keys
	body   []byte
}

// bodyCacheBudget bounds the bytes of encoded request bodies kept for
// reuse; bodies of graphs the stream regenerates are never kept.
const bodyCacheBudget = 128 << 20

// preparer builds requests, reusing the bodies of cached graphs.
type preparer struct {
	st *stream

	mu     sync.Mutex
	bodies map[bodyKey][]byte
	bytes  int
}

type bodyKey struct {
	k    key
	json bool
}

func newPreparer(st *stream) *preparer {
	return &preparer{st: st, bodies: make(map[bodyKey][]byte)}
}

func (p *preparer) prepare(o op) (*request, error) {
	r := &request{op: o, graphs: make([]*graphInfo, len(o.keys))}
	for i, k := range o.keys {
		r.graphs[i] = p.st.graph(k.graph)
	}
	if o.route == routeBatch {
		params := make([]server.SolveParams, len(o.keys))
		graphs := make([]any, len(o.keys))
		for i, k := range o.keys {
			params[i] = server.SolveParams{Solver: k.solver, K: r.graphs[i].k(k.kmult)}
			graphs[i] = r.graphs[i].g
		}
		var err error
		r.body, err = server.AppendBatchRequest(nil, 0, params, graphs)
		return r, err
	}
	k, gi := o.keys[0], r.graphs[0]
	bk := bodyKey{k: k, json: o.route == routeJSONSolve}
	cacheable := k.graph < p.st.w.cachedGraphs
	if cacheable {
		p.mu.Lock()
		r.body = p.bodies[bk]
		p.mu.Unlock()
		if r.body != nil {
			return r, nil
		}
	}
	var err error
	if bk.json {
		r.body, err = jsonSolveBody(k, gi)
	} else {
		r.body, err = server.AppendSolveRequest(nil, server.SolveParams{Solver: k.solver, K: gi.k(k.kmult)}, gi.g)
	}
	if err != nil {
		return nil, err
	}
	if cacheable {
		p.mu.Lock()
		if p.bytes+len(r.body) <= bodyCacheBudget && p.bodies[bk] == nil {
			p.bodies[bk] = r.body
			p.bytes += len(r.body)
		}
		p.mu.Unlock()
	}
	return r, nil
}

// jsonSolveBody renders the JSON /v1/solve body of key k.
func jsonSolveBody(k key, gi *graphInfo) ([]byte, error) {
	var g bytes.Buffer
	if err := graph.WriteJSON(&g, gi.g); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Solver string          `json:"solver"`
		K      float64         `json:"k"`
		Graph  json.RawMessage `json:"graph"`
	}{k.solver, gi.k(k.kmult), bytes.TrimSpace(g.Bytes())})
}

// outcome is what one operation did, from the client's side.
type outcome struct {
	err       error // nil when every answer arrived and passed its check
	incorrect bool  // an answer arrived but failed its check
	// exchanges are the operation's HTTP exchanges, in order.
	exchanges []exchangeTimes
	// forwarded and local count answers by their X-Cluster header.
	forwarded, local int
	// job timings, set for routeJob.
	job *jobTimes
}

// exchangeTimes keeps what the layer metrics need of one exchange.
type exchangeTimes struct {
	write, server, read time.Duration
	reqBytes, respBytes int
}

type jobTimes struct {
	queueWait, run, notify time.Duration
}

// execute runs one operation on c. Spans go to rec under trace id tid
// when rec is non-nil.
func (b *bench) execute(ctx context.Context, c *conn, r *request, rec *recorder, tid int64, root int32) outcome {
	var out outcome
	record := func(name string, ex *exchange) {
		out.exchanges = append(out.exchanges, exchangeTimes{
			write: ex.wrote.Sub(ex.start), server: ex.firstByte.Sub(ex.wrote), read: ex.done.Sub(ex.firstByte),
			reqBytes: ex.reqBytes, respBytes: len(ex.body),
		})
		if rec != nil {
			parent := root
			if r.op.route == routeJob {
				parent = rec.add(tid, root, "http", name, ex.start, ex.done)
			}
			rec.add(tid, parent, "http", "write", ex.start, ex.wrote)
			rec.add(tid, parent, "http", "server", ex.wrote, ex.firstByte)
			rec.add(tid, parent, "http", "read", ex.firstByte, ex.done)
		}
	}
	fail := func(err error) outcome {
		out.err = err
		out.incorrect = errors.Is(err, errCheck)
		return out
	}
	idx := r.op.idx
	switch r.op.route {
	case routeBinSolve, routeJSONSolve:
		ct, accept, f := codec.ContentType, codec.ContentType, formatPRS1
		if r.op.route == routeJSONSolve {
			ct, accept, f = "application/json", "", formatJSON
		}
		ex, err := c.do(ctx, http.MethodPost, "/v1/solve", ct, accept, r.body, nil)
		if err != nil {
			return fail(err)
		}
		record("solve", ex)
		if err := statusErr(ex, http.StatusOK); err != nil {
			return fail(err)
		}
		out.countAnswer(ex.header)
		t := time.Now()
		err = b.check.check(idx, ex.body, f, r.op.keys[0], r.graphs[0])
		rec.add(tid, root, "check", "check", t, time.Now())
		if err != nil {
			return fail(err)
		}
	case routeBatch:
		ex, err := c.do(ctx, http.MethodPost, "/v1/batch", codec.ContentType, codec.ContentType, r.body, nil)
		if err != nil {
			return fail(err)
		}
		record("batch", ex)
		if err := statusErr(ex, http.StatusOK); err != nil {
			return fail(err)
		}
		t := time.Now()
		err = b.checkBatch(idx, ex.body, r, &out)
		rec.add(tid, root, "check", "check", t, time.Now())
		if err != nil {
			return fail(err)
		}
	case routeJob:
		if err := b.runJob(ctx, c, r, &out, record, rec, tid, root); err != nil {
			return fail(err)
		}
	}
	return out
}

// countAnswer tallies one answer's cluster header.
func (o *outcome) countAnswer(h http.Header) {
	if strings.HasPrefix(h.Get("X-Cluster"), "forwarded") {
		o.forwarded++
	} else {
		o.local++
	}
}

// statusErr turns an unexpected status (a 429 or 503 shed among them) into
// an error carrying the start of the body.
func statusErr(ex *exchange, want int) error {
	if ex.status == want {
		return nil
	}
	msg := ex.body[:min(len(ex.body), 200)]
	return fmt.Errorf("status %d: %s", ex.status, bytes.TrimSpace(msg))
}

// checkBatch checks a PBR1 answer item by item.
func (b *bench) checkBatch(idx int64, body []byte, r *request, out *outcome) error {
	res, err := server.DecodeBatchResult(body)
	if err != nil {
		return checkFail("PBR1 frame: %v", err)
	}
	if len(res.Items) != len(r.op.keys) {
		return checkFail("%d batch items, sent %d", len(res.Items), len(r.op.keys))
	}
	for i, it := range res.Items {
		if it.Error != "" {
			return fmt.Errorf("batch item %d: %s", i, it.Error)
		}
		if err := b.check.checkDecoded(idx, it.Result, r.op.keys[i], r.graphs[i]); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

// jobStatus is the part of the POST /v1/jobs and GET /v1/jobs/{id} bodies
// the benchmark reads.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Events   string          `json:"eventsUrl"`
	Result   json.RawMessage `json:"result"`
}

// runJob submits a binary job, follows its event stream to the terminal
// state event, then fetches and checks the result.
func (b *bench) runJob(ctx context.Context, c *conn, r *request, out *outcome, record func(string, *exchange), rec *recorder, tid int64, root int32) error {
	ex, err := c.do(ctx, http.MethodPost, "/v1/jobs", codec.ContentType, "", r.body, nil)
	if err != nil {
		return err
	}
	record("submit", ex)
	if err := statusErr(ex, http.StatusAccepted); err != nil {
		return err
	}
	var sub jobStatus
	if err := json.Unmarshal(ex.body, &sub); err != nil {
		return checkFail("job submit body: %v", err)
	}
	if sub.ID == "" || sub.Events == "" {
		return checkFail("job submit body without id or eventsUrl")
	}
	var terminal string
	var terminalAt time.Time
	ex, err = c.do(ctx, http.MethodGet, sub.Events, "", "", nil, func(body io.Reader) error {
		var serr error
		terminal, serr = awaitTerminal(body)
		terminalAt = time.Now()
		return serr
	})
	if err != nil {
		return err
	}
	record("events", ex)
	if err := statusErr(ex, http.StatusOK); err != nil {
		return err
	}
	if terminal != "succeeded" {
		return fmt.Errorf("job %s ended %s", sub.ID, terminal)
	}
	ex, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, "", "", nil, nil)
	if err != nil {
		return err
	}
	record("status", ex)
	if err := statusErr(ex, http.StatusOK); err != nil {
		return err
	}
	t := time.Now()
	defer func() { rec.add(tid, root, "check", "check", t, time.Now()) }()
	var st jobStatus
	if err := json.Unmarshal(ex.body, &st); err != nil {
		return checkFail("job status body: %v", err)
	}
	if st.State != "succeeded" || st.Started == nil || st.Finished == nil || len(st.Result) == 0 {
		return checkFail("job %s status %q without times or result", sub.ID, st.State)
	}
	out.job = &jobTimes{
		queueWait: st.Started.Sub(st.Created),
		run:       st.Finished.Sub(*st.Started),
		notify:    terminalAt.Sub(*st.Finished),
	}
	out.local++
	return b.check.check(r.op.idx, st.Result, formatJSON, r.op.keys[0], r.graphs[0])
}

// awaitTerminal reads server-sent events until a state event names a
// terminal state, and returns that state.
func awaitTerminal(body io.Reader) (string, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "state":
			var p struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(line[len("data: "):]), &p); err != nil {
				return "", checkFail("state event: %v", err)
			}
			switch p.State {
			case "succeeded", "failed", "canceled":
				return p.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", errors.New("event stream ended before a terminal state")
}

// sample is one operation's result in a timed window.
type sample struct {
	idx     int64
	route   route
	latency time.Duration // due (open loop) or send (closed loop) → checked
	sent    time.Time     // when the closed loop sent it
	late    time.Duration // how late the generator handed it over
	queue   time.Duration // wait for a free connection
	keys    []key
	outcome
}

// lookahead is how many requests the producer builds ahead of the
// dispatcher, bounding client memory while keeping generation off the
// timed path.
const lookahead = 4

// produce builds requests for stream indices from..from+n (n < 0: until
// ctx ends) into a channel it closes when done. A caller that stops reading
// early cancels ctx and drains the channel, so the producer has exited
// before the caller returns.
func (b *bench) produce(ctx context.Context, from int64, n int) <-chan *request {
	out := make(chan *request, lookahead)
	go func() {
		defer close(out)
		for i := int64(0); n < 0 || i < int64(n); i++ {
			r, err := b.prep.prepare(b.st.op(from + i))
			if err != nil {
				b.fatal(fmt.Errorf("prepare op %d: %w", from+i, err))
				return
			}
			select {
			case out <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

// openLoop offers rate operations per second for dur, starting at stream
// index from. Each operation is timed from its due time until its answer
// is read and checked, so a stall charges every request queued behind it.
func (b *bench) openLoop(ctx context.Context, from int64, rate float64, dur time.Duration, rec *recorder) []sample {
	n := int(rate * dur.Seconds())
	ctx, cancel := context.WithTimeout(ctx, dur+time.Minute)
	defer cancel()
	reqs := b.produce(ctx, from, n)
	type due struct {
		r    *request
		at   time.Time
		late time.Duration
	}
	work := make(chan due, n) // sized to the whole schedule: the dispatcher never blocks
	go func() {
		defer close(work)
		interval := time.Duration(float64(time.Second) / rate)
		t0 := time.Now().Add(20 * time.Millisecond)
		for i := 0; i < n; i++ {
			r, ok := <-reqs
			if !ok {
				return
			}
			at := t0.Add(time.Duration(i) * interval)
			select {
			case <-time.After(time.Until(at)):
			case <-ctx.Done():
				return
			}
			work <- due{r: r, at: at, late: time.Since(at)}
		}
	}()
	samples := make([]sample, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				start := time.Now()
				tid := d.r.op.idx
				root := rec.open(tid, "load", d.r.op.route.String(), d.at)
				rec.add(tid, root, "load", "queue", d.at, start)
				o := b.execute(ctx, c, d.r, rec, tid, root)
				end := time.Now()
				rec.end(root, end)
				s := sample{idx: d.r.op.idx, route: d.r.op.route, latency: end.Sub(d.at), late: d.late,
					queue: start.Sub(d.at), keys: d.r.op.keys, outcome: o}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cancel()
	for range reqs {
	}
	return samples
}

// closedLoop runs one client per connection for dur, each sending its
// next operation of the stream only after the previous one is checked. It
// returns the samples and the time from the start to the last completion.
func (b *bench) closedLoop(ctx context.Context, from int64, dur time.Duration) ([]sample, time.Duration) {
	opCtx, cancel := context.WithTimeout(ctx, dur+time.Minute)
	defer cancel()
	genCtx, stopGen := context.WithCancel(opCtx)
	defer stopGen()
	reqs := b.produce(genCtx, from, -1)
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu      sync.Mutex
		samples []sample
		last    time.Duration
		wg      sync.WaitGroup
	)
	for _, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r, ok := <-reqs
				if !ok {
					return
				}
				t := time.Now()
				o := b.execute(opCtx, c, r, nil, 0, 0)
				end := time.Now()
				s := sample{idx: r.op.idx, route: r.op.route, latency: end.Sub(t), sent: t, keys: r.op.keys, outcome: o}
				mu.Lock()
				samples = append(samples, s)
				last = max(last, end.Sub(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stopGen()
	for range reqs {
	}
	return samples, last
}
