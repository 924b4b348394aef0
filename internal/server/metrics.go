package server

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/version"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4) — the repo
// is stdlib-only, and the counter surface is small enough that a client
// library buys nothing. Every family has one owner, and every family header
// goes through family:
//
//   - solveMetrics, the server's engine Observer: per-solver series;
//   - writeServerMetrics: cache, admission, certificate and HTTP series;
//   - writeJobsMetrics, writeClusterMetrics and writeObsMetrics: the job
//     queue, cache tiers and cluster, and process-level series.

// family writes one metric family's # HELP and # TYPE lines.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// single writes a family that holds one unlabeled sample.
func single(w io.Writer, name, typ, help string, v any) {
	family(w, name, typ, help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// httpMetrics counts requests by (route, status code) and tracks a per-route
// latency histogram, plus an in-flight gauge. Routes are the registered
// patterns, not raw URLs, so cardinality is bounded.
type httpMetrics struct {
	mu        sync.Mutex
	requests  map[string]map[int]uint64 // route → code → count
	durations map[string]*obs.Histogram // route → latency histogram
	inFlight  int64
}

func newHTTPMetrics() *httpMetrics {
	return &httpMetrics{
		requests:  make(map[string]map[int]uint64),
		durations: make(map[string]*obs.Histogram),
	}
}

func (m *httpMetrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	byCode := m.requests[route]
	if byCode == nil {
		byCode = make(map[int]uint64)
		m.requests[route] = byCode
	}
	byCode[code]++
	h := m.durations[route]
	if h == nil {
		h = obs.NewHistogram(obs.LatencyBuckets())
		m.durations[route] = h
	}
	m.mu.Unlock()
	h.ObserveDuration(d)
}

func (m *httpMetrics) addInFlight(d int64) {
	m.mu.Lock()
	m.inFlight += d
	m.mu.Unlock()
}

// snapshot returns a deep copy of the counters and histograms plus the
// in-flight gauge.
func (m *httpMetrics) snapshot() (map[string]map[int]uint64, map[string]obs.HistogramSnapshot, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]map[int]uint64, len(m.requests))
	for route, byCode := range m.requests {
		cp := make(map[int]uint64, len(byCode))
		for code, n := range byCode {
			cp[code] = n
		}
		out[route] = cp
	}
	hists := make(map[string]obs.HistogramSnapshot, len(m.durations))
	for route, h := range m.durations {
		hists[route] = h.Snapshot()
	}
	return out, hists, m.inFlight
}

// writeServerMetrics renders the cache, admission, certificate and HTTP
// series, with series sorted for deterministic output (stable diffs,
// testable).
func (s *Server) writeServerMetrics(w io.Writer) {
	cs := s.cache.Stats()
	single(w, "partitiond_cache_hits_total", "counter", "Result cache hits.", cs.Hits)
	single(w, "partitiond_cache_misses_total", "counter", "Result cache misses.", cs.Misses)
	single(w, "partitiond_cache_evictions_total", "counter", "Result cache LRU evictions.", cs.Evictions)
	single(w, "partitiond_cache_entries", "gauge", "Result cache resident entries.", cs.Entries)
	single(w, "partitiond_cache_capacity", "gauge", "Result cache capacity in entries.", cs.Capacity)

	ls := s.limiter.Stats()
	single(w, "partitiond_admission_in_flight", "gauge", "Solves currently holding an admission slot.", ls.InFlight)
	single(w, "partitiond_admission_queued", "gauge", "Requests currently waiting for an admission slot.", ls.Queued)
	single(w, "partitiond_admission_admitted_total", "counter", "Requests granted an admission slot.", ls.Admitted)
	single(w, "partitiond_admission_shed_queue_full_total", "counter", "Requests shed because the admission queue was full (HTTP 429).", ls.ShedQueueFull)
	single(w, "partitiond_admission_shed_deadline_total", "counter", "Requests that left the admission queue on deadline or disconnect.", ls.ShedDeadline)

	family(w, "partitiond_verify_total", "counter", "Requested optimality certificates by outcome.")
	fmt.Fprintf(w, "partitiond_verify_total{result=\"certified\"} %d\n", s.verifyCertified.Load())
	fmt.Fprintf(w, "partitiond_verify_total{result=\"uncertified\"} %d\n", s.verifyUncertified.Load())

	requests, durations, inFlight := s.httpm.snapshot()
	family(w, "partitiond_http_requests_total", "counter", "HTTP requests by route and status code.")
	for _, r := range sortedKeys(requests) {
		for _, c := range sortedKeys(requests[r]) {
			fmt.Fprintf(w, "partitiond_http_requests_total{route=%q,code=\"%d\"} %d\n", r, c, requests[r][c])
		}
	}
	family(w, "partitiond_http_request_duration_seconds", "histogram", "HTTP request duration by route.")
	for _, r := range sortedKeys(durations) {
		durations[r].WritePrometheus(w, "partitiond_http_request_duration_seconds", map[string]string{"route": r})
	}
	single(w, "partitiond_http_in_flight", "gauge", "HTTP requests currently being served.", inFlight)
	single(w, "partitiond_uptime_seconds", "gauge", "Seconds since the server started.", time.Since(s.started).Seconds())
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// writeObsMetrics renders the process-level observability families: build
// identity, Go runtime health, pool effectiveness, and the flight recorder's
// retention accounting.
func (s *Server) writeObsMetrics(w io.Writer) {
	family(w, "partitiond_build_info", "gauge", "Build identity; the value is always 1.")
	fmt.Fprintf(w, "partitiond_build_info{version=%q,go_version=%q} 1\n", version.Version, version.GoVersion())

	rs := obs.ReadRuntimeStats()
	single(w, "partitiond_go_goroutines", "gauge", "Live goroutines.", rs.Goroutines)
	single(w, "partitiond_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.", rs.HeapAlloc)
	single(w, "partitiond_go_heap_sys_bytes", "gauge", "Heap memory obtained from the OS.", rs.HeapSys)
	single(w, "partitiond_go_heap_objects", "gauge", "Live heap objects.", rs.HeapObjects)
	single(w, "partitiond_go_gc_next_bytes", "gauge", "Heap size that triggers the next GC cycle.", rs.NextGC)
	single(w, "partitiond_go_gc_cycles_total", "counter", "Completed GC cycles.", rs.GCCycles)
	single(w, "partitiond_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.", rs.GCPauseTotal.Seconds())
	single(w, "partitiond_go_gc_cpu_fraction", "gauge", "Fraction of CPU time spent in GC since process start.", rs.GCCPUFraction)

	family(w, "partitiond_pool_requests_total", "counter", "Object-pool checkouts by pool and result (hit = recycled, new = allocated).")
	ps := s.graphPool.Stats()
	fmt.Fprintf(w, "partitiond_pool_requests_total{pool=\"codec-graph\",result=\"hit\"} %d\n", ps.Hits)
	fmt.Fprintf(w, "partitiond_pool_requests_total{pool=\"codec-graph\",result=\"new\"} %d\n", ps.News)
	gets, news := core.ScratchPoolStats()
	fmt.Fprintf(w, "partitiond_pool_requests_total{pool=\"solver-scratch\",result=\"hit\"} %d\n", gets-news)
	fmt.Fprintf(w, "partitiond_pool_requests_total{pool=\"solver-scratch\",result=\"new\"} %d\n", news)

	if s.recorder == nil {
		return
	}
	st := s.recorder.Stats()
	single(w, "partitiond_traces_offered_total", "counter", "Finished request traces offered to the flight recorder.", st.Offered)
	family(w, "partitiond_traces_retained_total", "counter", "Traces retained by the flight recorder, by retention reason.")
	for _, reason := range flight.Reasons() {
		fmt.Fprintf(w, "partitiond_traces_retained_total{reason=%q} %d\n", reason, st.KeptByReason[reason])
	}
	single(w, "partitiond_traces_dropped_total", "counter", "Traces offered but not retained (no retention rule matched).", st.Dropped)
	family(w, "partitiond_trace_store_evicted_total", "counter", "Retained traces evicted from the store, by cap that forced it.")
	fmt.Fprintf(w, "partitiond_trace_store_evicted_total{cause=\"count\"} %d\n", st.EvictedCount)
	fmt.Fprintf(w, "partitiond_trace_store_evicted_total{cause=\"bytes\"} %d\n", st.EvictedBytes)
	single(w, "partitiond_trace_store_traces", "gauge", "Traces resident in the flight-recorder store.", st.Traces)
	single(w, "partitiond_trace_store_bytes", "gauge", "Approximate bytes resident in the flight-recorder store.", st.Bytes)
	family(w, "partitiond_trace_store_capacity", "gauge", "Flight-recorder store caps, by dimension.")
	fmt.Fprintf(w, "partitiond_trace_store_capacity{dimension=\"traces\"} %d\n", st.CapTraces)
	fmt.Fprintf(w, "partitiond_trace_store_capacity{dimension=\"bytes\"} %d\n", st.CapBytes)
}

// writeJobsMetrics renders the async job subsystem's series. The
// partitiond_jobs_total family is labeled by state: the terminal states are
// cumulative counters, while "queued" and "running" are the current
// occupancy (which is why the family is declared a gauge).
func writeJobsMetrics(w io.Writer, st jobs.Stats) {
	family(w, "partitiond_jobs_total", "gauge", "Async jobs by state: current occupancy for queued/running, cumulative for terminal states.")
	fmt.Fprintf(w, "partitiond_jobs_total{state=\"queued\"} %d\n", st.Queued)
	fmt.Fprintf(w, "partitiond_jobs_total{state=\"running\"} %d\n", st.Running)
	fmt.Fprintf(w, "partitiond_jobs_total{state=\"succeeded\"} %d\n", st.Succeeded)
	fmt.Fprintf(w, "partitiond_jobs_total{state=\"failed\"} %d\n", st.Failed)
	fmt.Fprintf(w, "partitiond_jobs_total{state=\"canceled\"} %d\n", st.Canceled)
	single(w, "partitiond_jobs_submitted_total", "counter", "Accepted job submissions (dedup joins excluded).", st.Submitted)
	single(w, "partitiond_jobs_dedup_joined_total", "counter", "Job submissions answered by an existing identical job.", st.DedupJoined)
	single(w, "partitiond_jobs_queue_capacity", "gauge", "Job queue capacity.", st.QueueCap)
	single(w, "partitiond_jobs_workers", "gauge", "Job worker pool size.", st.Workers)
	single(w, "partitiond_jobs_retained", "gauge", "Jobs currently retained (all states).", st.Retained)
}
