package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Window lengths as shares of --seconds. The untraced run alternates
// measureSlices open-loop and closed-loop slices, so a slow stretch of a
// shared host lands on both loops and on several slices. The traced run
// splits its time into traceSlices equal open-loop slices, untraced and
// traced in turn, whose difference is the tracing overhead.
const (
	openShare     = 0.2
	closedShare   = 0.8
	measureSlices = 6
	traceSlices   = 6
)

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []string{"p50_ms", "p99_ms", "capacity_rps", "cpu_ms_per_req", "server_rss_mb", "ok_ratio", "setup_s"}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// latencies returns the samples' latencies in ms, failed operations as
// +Inf, so they count as slower than any success.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency)
		if s.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// finite caps a percentile that landed on a failed operation at the
// window length, which every success beat.
func finite(v float64, window time.Duration) float64 {
	if math.IsInf(v, 1) {
		return ms(window)
	}
	return v
}

// closedSlice is one closed-loop slice of the untraced run: its samples
// in the run's closed-loop list, its length, and the host's CPU time over
// it.
type closedSlice struct {
	from, to int
	elapsed  time.Duration
	cpu      cpuTrace
}

// measure is the untraced run: open-loop slices at the workload's rate,
// then closed-loop slices of nproc clients, then the reference pass. It
// reports the end-to-end metrics.
//
// The host is shared: its hypervisor gives the benchmark's vCPUs a share
// of the time they ask for that follows the neighbours' load, and every
// wall-clock figure follows it. The closed loop keeps every vCPU busy, so
// its figures are scaled to the host's full share by the share of demanded
// CPU time delivered, busy/(busy+steal) from /proc/stat: each latency is
// multiplied by the share delivered while that request ran, and capacity —
// the median over slices of each slice's completion rate — divided by the
// slice's share. The open loop, whose vCPUs are mostly idle, sets the
// server's peak RSS after a fixed number of operations; its raw latencies
// are printed, not reported.
func (b *bench) measure(ctx context.Context, o options, setups []float64, out *bufio.Writer) (result, error) {
	openDur := seconds(o.seconds * openShare / measureSlices)
	closedDur := seconds(o.seconds * closedShare / measureSlices)
	var open window
	c0 := readCPUStat()
	for i := 0; i < measureSlices; i++ {
		w, err := b.observe(func() []sample { return b.openLoop(ctx, int64(len(open.samples)), b.w.rate, openDur, nil) })
		if err != nil {
			return result{}, err
		}
		open.samples = append(open.samples, w.samples...)
		open.cpu += w.cpu
	}
	openCPU := readCPUStat().sub(c0)
	rssKB, err := b.fl.peakRSSKB()
	if err != nil {
		return result{}, err
	}

	var (
		closed    []sample
		slices    []closedSlice
		closedCPU time.Duration
	)
	for i := 0; i < measureSlices; i++ {
		t0, err := b.fl.cpuTicks()
		if err != nil {
			return result{}, err
		}
		stop := startCPUTrace()
		ss, elapsed := b.closedLoop(ctx, baseClosed+int64(len(closed)), closedDur)
		tr := stop()
		t1, err := b.fl.cpuTicks()
		if err != nil {
			return result{}, err
		}
		closedCPU += time.Duration(t1-t0) * clockTick
		if elapsed > 0 {
			slices = append(slices, closedSlice{from: len(closed), to: len(closed) + len(ss), elapsed: elapsed, cpu: tr})
		}
		closed = append(closed, ss...)
	}
	bad, err := b.check.checkObjectives()
	if err != nil {
		return result{}, err
	}
	markIncorrect(open.samples, bad)
	markIncorrect(closed, bad)
	reportFailures(open.samples)
	reportFailures(closed)
	if len(open.samples) == 0 || len(slices) == 0 {
		return result{}, errNoSamples
	}
	attempted, failed, correct := tally(open.samples, closed)

	var lat, rates, raw []float64
	var runCPU cpuStat
	for i, sl := range slices {
		ok := 0
		for _, s := range closed[sl.from:sl.to] {
			v := math.Inf(1)
			if s.err == nil {
				ok++
				v = ms(s.latency) * sl.cpu.deliveredOver(s.sent, s.sent.Add(s.latency))
			}
			lat = append(lat, v)
		}
		cs := sl.cpu.total()
		runCPU = runCPU.add(cs)
		r := float64(ok) / sl.elapsed.Seconds()
		raw, rates = append(raw, r), append(rates, r/cs.delivered())
		fmt.Fprintf(out, "# %s closed slice %d: %d ops at %.1f/s, delivered %.3f, adjusted %.1f/s, p50 %.3f ms adjusted\n",
			b.w.name, i, sl.to-sl.from, r, cs.delivered(), r/cs.delivered(), percentile(lat[len(lat)-(sl.to-sl.from):], 0.5))
	}
	p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
	beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	ol := latencies(open.samples)
	late := make([]float64, len(open.samples))
	for i, s := range open.samples {
		late[i] = ms(s.late)
	}
	fmt.Fprintf(out, "# %s open loop: %d ops at %.0f/s over %d×%v, raw p50 %.3f ms, p99 %.3f ms (generator late p99 %.3f ms), server CPU %.3f ms/op; host steal %.1f%% of CPU time\n",
		b.w.name, len(ol), b.w.rate, measureSlices, openDur.Round(time.Millisecond), percentile(ol, 0.5), percentile(ol, 0.99), percentile(late, 0.99),
		ms(open.cpu)/float64(len(ol)), 100*openCPU.stealShare())
	fmt.Fprintf(out, "# %s closed loop: %d ops by %d clients over %d×%v (%d beyond p99), raw p50 %.3f ms, p99 %.3f ms, capacity %.1f/s; host steal %.1f%% of CPU time, delivered %.3f\n",
		b.w.name, len(lat), len(b.conns), measureSlices, closedDur.Round(time.Millisecond), beyond,
		percentile(latencies(closed), 0.5), percentile(latencies(closed), 0.99), median(raw), 100*runCPU.stealShare(), runCPU.delivered())
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples beyond p99; raise --seconds\n", beyond)
	}
	writeRouteLatencies(out, b.w.name, open.samples)
	return result{
		Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"p50_ms":         {finite(p50, closedDur), "ms"},
			"p99_ms":         {finite(p99, closedDur), "ms"},
			"capacity_rps":   {median(rates), "1/s"},
			"cpu_ms_per_req": {ms(closedCPU) / float64(len(closed)), "ms"},
			"server_rss_mb":  {float64(rssKB) / 1024, "MiB"},
			"ok_ratio":       {float64(attempted-failed) / float64(attempted), "ratio"},
			"setup_s":        {median(setups), "s"},
		},
	}, nil
}

// writeRouteLatencies prints raw open-loop p50 and p99 per route, so a tail
// can be traced to the route that makes it.
func writeRouteLatencies(out *bufio.Writer, name string, samples []sample) {
	var byRoute [numRoutes][]sample
	for _, s := range samples {
		byRoute[s.route] = append(byRoute[s.route], s)
	}
	for rt, ss := range byRoute {
		if len(ss) == 0 {
			continue
		}
		lat := latencies(ss)
		fmt.Fprintf(out, "# %s route %s: %d ops, p50 %.3f ms, p99 %.3f ms\n",
			name, route(rt), len(ss), percentile(lat, 0.5), percentile(lat, 0.99))
	}
}

// measureLayers is the traced run: an untraced open loop, then a traced one
// on the same schedule with the benchmark's spans on and /metrics diffed
// around it, then the in-process replay. It reports the per-layer metrics.
func (b *bench) measureLayers(ctx context.Context, o options, out *bufio.Writer) (result, error) {
	// Untraced and traced slices alternate ABBAAB, so a host that speeds up
	// or slows down during the run drops out of their difference.
	slice := seconds(o.seconds / traceSlices)
	rec := &recorder{}
	var plain []sample
	traced := window{metrics: make(promSnapshot)}
	var plainCPU, tracedCPU time.Duration
	for i := 0; i < traceSlices; i++ {
		if i%4 == 0 || i%4 == 3 {
			c0 := selfCPU()
			ss := b.openLoop(ctx, int64(len(plain)), b.w.rate, slice, nil)
			plainCPU += selfCPU() - c0
			plain = append(plain, ss...)
			continue
		}
		w, err := b.observe(func() []sample {
			c0 := selfCPU()
			ss := b.openLoop(ctx, baseTraced+int64(len(traced.samples)), b.w.rate, slice, rec)
			tracedCPU += selfCPU() - c0
			return ss
		})
		if err != nil {
			return result{}, err
		}
		traced.samples = append(traced.samples, w.samples...)
		traced.metrics.add(w.metrics)
		traced.after = w.after
	}
	rs, err := b.replay(traced.samples, rec)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	bad, err := b.check.checkObjectives()
	if err != nil {
		return result{}, err
	}
	markIncorrect(plain, bad)
	markIncorrect(traced.samples, bad)
	reportFailures(plain)
	reportFailures(traced.samples)
	if len(plain) == 0 || len(traced.samples) == 0 {
		return result{}, errNoSamples
	}
	attempted, failed, correct := tally(plain, traced.samples)
	m := b.layerMetrics(plain, traced, rs, rec)
	m["trace.spans"] = metric{float64(rec.count()), "count"}
	m["trace.overhead_client_cpu_ms"] = metric{ms(tracedCPU)/float64(len(traced.samples)) - ms(plainCPU)/float64(len(plain)), "ms"}

	path := filepath.Join(o.out, fmt.Sprintf("%s-trace.json", b.w.name))
	if err := rec.writeChrome(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# %s traced window: %d ops; chrome trace %s; self time per span:\n", b.w.name, len(traced.samples), path)
	var tbl strings.Builder
	writeSelfTimes(&tbl, rec.selfTimes())
	for _, line := range strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n") {
		fmt.Fprintf(out, "#   %s\n", line)
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// layerMetrics derives the per-layer metrics of the traced window.
func (b *bench) layerMetrics(plain []sample, tw window, rs replayStats, rec *recorder) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := tw.metrics
	ss := tw.samples

	// load
	var late, queue []float64
	for _, s := range ss {
		late = append(late, ms(s.late))
		queue = append(queue, ms(s.queue))
	}
	set("load.late_p99_ms", percentile(late, 0.99), "ms")
	set("load.queue_p50_ms", percentile(queue, 0.50), "ms")

	// http transport: single-exchange operations (solves and batches).
	var write, server, read []float64
	var reqB, respB float64
	nex := 0
	for _, s := range ss {
		if s.route == routeJob {
			continue
		}
		for _, ex := range s.exchanges {
			write = append(write, ms(ex.write))
			server = append(server, ms(ex.server))
			read = append(read, ms(ex.read))
			reqB += float64(ex.reqBytes)
			respB += float64(ex.respBytes)
			nex++
		}
	}
	set("http.write_ms", median(write), "ms")
	set("http.server_ms", median(server), "ms")
	set("http.read_ms", median(read), "ms")
	set("http.req_kb", ratio(reqB/1024, float64(nex)), "KiB")
	set("http.resp_kb", ratio(respB/1024, float64(nex)), "KiB")

	// codec and graph (replay)
	set("codec.decode_ms", rs.decode.meanMs(), "ms")
	set("codec.decode_mb_s", ratio(float64(rs.decodeBytes)/(1<<20), rs.decode.total.Seconds()), "MiB/s")
	poolHit := d.sum("partitiond_pool_requests_total", map[string]string{"pool": "codec-graph", "result": "hit"})
	poolNew := d.sum("partitiond_pool_requests_total", map[string]string{"pool": "codec-graph", "result": "new"})
	set("codec.pool_hit_ratio", ratio(poolHit, poolHit+poolNew), "ratio")
	set("graph.fingerprint_ms", rs.fingerprint.meanMs(), "ms")
	set("graph.validate_ms", rs.validate.meanMs(), "ms")

	// server
	routeMs := func(route string) (float64, float64) {
		sum := d.sum("partitiond_http_request_duration_seconds_sum", map[string]string{"route": route})
		n := d.sum("partitiond_http_request_duration_seconds_count", map[string]string{"route": route})
		return sum * 1000, n
	}
	solveSum, solveN := routeMs("/v1/solve")
	batchSum, batchN := routeMs("/v1/batch")
	jobsSum, jobsN := routeMs("/v1/jobs")
	set("server.route_ms.solve", ratio(solveSum, solveN), "ms")
	set("server.route_ms.batch", ratio(batchSum, batchN), "ms")
	set("server.route_ms.jobs", ratio(jobsSum, jobsN), "ms")
	hits := d.sum("partitiond_cache_hits_total", nil)
	misses := d.sum("partitiond_cache_misses_total", nil)
	set("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("server.cache_evictions", d.sum("partitiond_cache_evictions_total", nil), "count")
	set("server.admission_shed", d.sum("partitiond_admission_shed_queue_full_total", nil)+
		d.sum("partitiond_admission_shed_deadline_total", nil), "count")
	engineSolveMs := d.sum("partitiond_solve_duration_seconds_sum", nil) * 1000
	engineSolves := d.sum("partitiond_solve_duration_seconds_count", nil)
	// Route time not spent solving or decoding: admission, cache, flight
	// and render. Job solves run outside any request, so their run time is
	// taken out of the engine total first.
	var jobRunMs float64
	for _, s := range ss {
		if s.job != nil {
			jobRunMs += ms(s.job.run)
		}
	}
	items := solveN + batchN*batchItems
	set("server.other_ms", ratio(solveSum+batchSum-(engineSolveMs-jobRunMs), items)-rs.decode.meanMs(), "ms")

	// engine
	set("engine.solve_ms", rs.solve.meanMs(), "ms")
	set("engine.server_solve_ms", ratio(engineSolveMs, engineSolves), "ms")
	set("engine.solves", engineSolves, "count")
	distinct := map[key]bool{}
	for _, s := range ss {
		for _, k := range s.keys {
			distinct[k] = true
		}
	}
	set("engine.solves_per_key", ratio(engineSolves, float64(len(distinct))), "ratio")

	// prime, hitting, core (replay)
	for _, ph := range []string{"prime-extract", "temps-dp", "build-partition", "leaf-pruning", "edge-sort", "feasibility-probe"} {
		v := 0.0
		if st := rs.phases[ph]; st != nil {
			v = st.meanMs()
		}
		set("phase."+ph+"_ms", v, "ms")
	}
	set("prime.analyze_ms", rs.analyze.meanMs(), "ms")
	set("hitting.temps_ms", rs.temps.meanMs(), "ms")
	set("prime.p", ratio(rs.primeP, float64(rs.analyze.n)), "count")
	set("prime.q", ratio(rs.primeQ, float64(rs.analyze.n)), "count")

	// cluster
	var fwd, loc []float64
	var nf, nl int
	for _, s := range ss {
		nf += s.forwarded
		nl += s.local
		if s.err != nil || (s.route != routeBinSolve && s.route != routeJSONSolve) {
			continue
		}
		if s.forwarded > 0 {
			fwd = append(fwd, ms(s.latency))
		} else {
			loc = append(loc, ms(s.latency))
		}
	}
	set("cluster.forwarded_share", ratio(float64(nf), float64(nf+nl)), "ratio")
	set("cluster.forwarded_p50_ms", median(fwd), "ms")
	set("cluster.local_p50_ms", median(loc), "ms")
	set("cluster.forward_fail", d.sum("partitiond_cluster_forwards_total", map[string]string{"outcome": "error"}), "count")
	set("cluster.flight_shared", d.sum("partitiond_singleflight_total", map[string]string{"result": "shared"}), "count")

	// jobs
	var qw, run, notify []float64
	for _, s := range ss {
		if s.job != nil {
			qw = append(qw, ms(s.job.queueWait))
			run = append(run, ms(s.job.run))
			notify = append(notify, ms(s.job.notify))
		}
	}
	set("jobs.queue_wait_ms", median(qw), "ms")
	set("jobs.run_ms", median(run), "ms")
	set("jobs.notify_ms", median(notify), "ms")
	set("jobs.dedup_joined", d.sum("partitiond_jobs_dedup_joined_total", nil), "count")

	// obs and runtime
	set("obs.traces_offered", d.sum("partitiond_traces_offered_total", nil), "count")
	set("obs.traces_retained", d.sum("partitiond_traces_retained_total", nil), "count")
	set("runtime.gc_cycles", d.sum("partitiond_go_gc_cycles_total", nil), "count")
	set("runtime.gc_cpu_fraction", tw.after.sum("partitiond_go_gc_cpu_fraction", nil)/float64(len(b.fl.nodes)), "ratio")

	// tracing overhead: traced minus untraced, same schedule.
	pl, tl := latencies(plain), latencies(ss)
	set("trace.overhead_p50_ms", percentile(tl, 0.5)-percentile(pl, 0.5), "ms")
	set("trace.overhead_p99_ms", percentile(tl, 0.99)-percentile(pl, 0.99), "ms")
	return m
}

// selfCPU returns the user+system CPU the load generator has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the host's CPU time in clock ticks from the first line of
// /proc/stat: busy (user, nice, system, irq, softirq), steal, and the total
// including idle. Steal is time a virtual CPU was ready to run but its
// hypervisor ran something else; on a shared host it is the main source of
// run-to-run spread. All are 0 when /proc/stat is unreadable.
type cpuStat struct{ busy, steal, total int64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var c cpuStat
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64)
		c.total += v
		switch i {
		case 0, 1, 2, 5, 6: // user, nice, system, irq, softirq
			c.busy += v
		case 7:
			c.steal = v
		}
	}
	return c
}

func (c cpuStat) sub(d cpuStat) cpuStat {
	return cpuStat{c.busy - d.busy, c.steal - d.steal, c.total - d.total}
}

func (c cpuStat) add(d cpuStat) cpuStat {
	return cpuStat{c.busy + d.busy, c.steal + d.steal, c.total + d.total}
}

// stealShare is steal as a share of all CPU time.
func (c cpuStat) stealShare() float64 {
	if c.total <= 0 {
		return 0
	}
	return float64(c.steal) / float64(c.total)
}

// delivered is the share of the CPU time the host was asked for that it
// gave: busy/(busy+steal), 1 without steal.
func (c cpuStat) delivered() float64 {
	if c.busy <= 0 || c.steal <= 0 {
		return 1
	}
	return float64(c.busy) / float64(c.busy+c.steal)
}

// cpuTraceEvery is the period of the /proc/stat samples a cpuTrace takes.
const cpuTraceEvery = 200 * time.Millisecond

// cpuTrace is a series of /proc/stat samples over a closed-loop slice.
type cpuTrace struct {
	at []time.Time
	st []cpuStat
}

// startCPUTrace samples /proc/stat now and every cpuTraceEvery until the
// returned stop is called, which takes a last sample and returns them.
func startCPUTrace() (stop func() cpuTrace) {
	var tr cpuTrace
	tr.at, tr.st = append(tr.at, time.Now()), append(tr.st, readCPUStat())
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(cpuTraceEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				st := readCPUStat()
				tr.at, tr.st = append(tr.at, time.Now()), append(tr.st, st)
			}
		}
	}()
	return func() cpuTrace {
		close(done)
		<-finished
		tr.at, tr.st = append(tr.at, time.Now()), append(tr.st, readCPUStat())
		return tr
	}
}

// cumAt interpolates the cumulative busy and steal ticks at time t, clamped
// to the traced span.
func (tr cpuTrace) cumAt(t time.Time) (busy, steal float64) {
	n := len(tr.at)
	if n == 0 {
		return 0, 0
	}
	if !t.After(tr.at[0]) {
		return float64(tr.st[0].busy), float64(tr.st[0].steal)
	}
	if !t.Before(tr.at[n-1]) {
		return float64(tr.st[n-1].busy), float64(tr.st[n-1].steal)
	}
	i := sort.Search(n, func(i int) bool { return tr.at[i].After(t) })
	a, b := tr.at[i-1], tr.at[i]
	f := float64(t.Sub(a)) / float64(b.Sub(a))
	sa, sb := tr.st[i-1], tr.st[i]
	return float64(sa.busy) + f*float64(sb.busy-sa.busy), float64(sa.steal) + f*float64(sb.steal-sa.steal)
}

// total is the CPU time over the whole trace.
func (tr cpuTrace) total() cpuStat {
	if len(tr.st) == 0 {
		return cpuStat{}
	}
	return tr.st[len(tr.st)-1].sub(tr.st[0])
}

// deliveredOver is the share of demanded CPU time delivered between a and
// b, each sample period's ticks spread evenly over it.
func (tr cpuTrace) deliveredOver(a, b time.Time) float64 {
	b0, s0 := tr.cumAt(a)
	b1, s1 := tr.cumAt(b)
	busy, steal := b1-b0, s1-s0
	if busy <= 0 || steal <= 0 {
		return 1
	}
	return busy / (busy + steal)
}
