package server

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// slowRefreshEvery and slowMinCount pace the cached per-solver p99 slow
// threshold: it refreshes every slowRefreshEvery observations once at least
// slowMinCount have accumulated, so the flight recorder's adaptive "slow"
// rule reads an atomic instead of snapshotting a histogram per request.
const (
	slowRefreshEvery = 256
	slowMinCount     = 64
)

// solveSeries is one solver's metric state: the latency histogram (whose
// count and sum are the solve count and total wall time), the error,
// iteration and slowest-solve tallies, phase totals, the live in-flight
// gauge, the cached adaptive slow threshold, and the per-bucket exemplars
// linking buckets to retained traces.
type solveSeries struct {
	hist       *obs.Histogram
	errors     atomic.Int64
	iterations atomic.Int64
	maxNanos   atomic.Int64 // slowest single solve
	phases     map[string]obs.PhaseStat
	inFlight   atomic.Int64
	slowBits   atomic.Uint64  // float64 bits of the cached p99, in seconds
	refreshAt  atomic.Uint64  // histogram count that triggers the next refresh
	exemplars  []obs.Exemplar // len(bounds)+1, guarded by solveMetrics.mu
}

// solveMetrics is the server's one engine Observer: it owns every per-solver
// series on /metrics — latency histograms, error and iteration counts, the
// slowest solve, in-flight gauges and the per-phase time accounting. It sees
// every solve the server runs, standalone, batch item and job alike. The
// histograms and tallies are lock-free; the mutex only guards the map that
// lazily creates one series per solver, the phase totals, and the exemplar
// slots.
type solveMetrics struct {
	mu     sync.Mutex
	series map[string]*solveSeries
}

func newSolveMetrics() *solveMetrics {
	return &solveMetrics{series: make(map[string]*solveSeries)}
}

// seriesFor returns (creating if needed) the series for a solver.
func (m *solveMetrics) seriesFor(solver string) *solveSeries {
	m.mu.Lock()
	ser := m.series[solver]
	if ser == nil {
		ser = &solveSeries{
			hist:   obs.NewHistogram(obs.LatencyBuckets()),
			phases: make(map[string]obs.PhaseStat),
		}
		ser.refreshAt.Store(slowMinCount)
		m.series[solver] = ser
	}
	m.mu.Unlock()
	return ser
}

// Observe records one solve event.
func (m *solveMetrics) Observe(ev engine.Event) {
	ser := m.seriesFor(ev.Solver)
	if len(ev.Phases) > 0 {
		m.mu.Lock()
		for name, ps := range ev.Phases {
			agg := ser.phases[name]
			agg.Count += ps.Count
			agg.Total += ps.Total
			ser.phases[name] = agg
		}
		m.mu.Unlock()
	}
	ser.hist.ObserveDuration(ev.Stats.Duration)
	if ev.Err != nil {
		ser.errors.Add(1)
	}
	ser.iterations.Add(ev.Stats.Iterations)
	for d := int64(ev.Stats.Duration); ; {
		cur := ser.maxNanos.Load()
		if d <= cur || ser.maxNanos.CompareAndSwap(cur, d) {
			break
		}
	}
	// Refresh the cached p99 on a sparse schedule. The CAS makes one racing
	// observer do the snapshot; everyone else keeps the fast path.
	if n := ser.hist.Count(); n >= slowMinCount {
		at := ser.refreshAt.Load()
		if n >= at && ser.refreshAt.CompareAndSwap(at, n+slowRefreshEvery) {
			ser.slowBits.Store(math.Float64bits(ser.hist.Snapshot().Quantile(0.99)))
		}
	}
}

// slowFor is the flight recorder's adaptive threshold hook: the cached p99
// for the solver, 0 until enough observations exist. Alloc-free and cheap —
// it runs on every solve's Offer.
func (m *solveMetrics) slowFor(solver string) time.Duration {
	m.mu.Lock()
	ser := m.series[solver]
	m.mu.Unlock()
	if ser == nil {
		return 0
	}
	sec := math.Float64frombits(ser.slowBits.Load())
	if !(sec > 0) || sec > 1e6 { // unset, or the +Inf overflow bucket
		return 0
	}
	return time.Duration(sec * float64(time.Second))
}

// enter/exit bracket a local engine solve for the in-flight gauges.
func (m *solveMetrics) enter(solver string) *solveSeries {
	ser := m.seriesFor(solver)
	ser.inFlight.Add(1)
	return ser
}

func (m *solveMetrics) exit(ser *solveSeries) { ser.inFlight.Add(-1) }

// setExemplar links the histogram bucket d falls in to a retained trace, so
// /metrics can point straight from a latency bucket to /v1/traces/{id}.
func (m *solveMetrics) setExemplar(solver string, d time.Duration, traceID string) {
	if traceID == "" {
		return
	}
	ser := m.seriesFor(solver)
	idx, n := ser.hist.BucketIndex(d.Seconds())
	m.mu.Lock()
	if ser.exemplars == nil {
		ser.exemplars = make([]obs.Exemplar, n)
	}
	ser.exemplars[idx] = obs.Exemplar{TraceID: traceID, Value: d.Seconds(), Time: time.Now()}
	m.mu.Unlock()
}

// writeTo renders every per-solver family in Prometheus text format, sorted
// for deterministic output.
func (m *solveMetrics) writeTo(w io.Writer) {
	// Copy what the mutex guards; histograms and tallies read lock-free.
	m.mu.Lock()
	solvers := sortedKeys(m.series)
	sers := make([]*solveSeries, len(solvers))
	exemplars := make([][]obs.Exemplar, len(solvers))
	phases := make([]map[string]obs.PhaseStat, len(solvers))
	for i, name := range solvers {
		sers[i] = m.series[name]
		exemplars[i] = append([]obs.Exemplar(nil), sers[i].exemplars...)
		phases[i] = maps.Clone(sers[i].phases)
	}
	m.mu.Unlock()

	family(w, "partitiond_solve_duration_seconds", "histogram", "Solve wall time by solver.")
	for i, name := range solvers {
		sers[i].hist.Snapshot().WritePrometheusExemplars(
			w, "partitiond_solve_duration_seconds", map[string]string{"solver": name}, exemplars[i])
	}
	perSolver := func(metric, typ, help string, value func(*solveSeries) any) {
		family(w, metric, typ, help)
		for i, name := range solvers {
			fmt.Fprintf(w, "%s{solver=%q} %v\n", metric, name, value(sers[i]))
		}
	}
	perSolver("partitiond_solver_errors_total", "counter", "Solves that returned an error, by solver.",
		func(ser *solveSeries) any { return ser.errors.Load() })
	perSolver("partitiond_solver_iterations_total", "counter", "Solver main-loop iterations by solver.",
		func(ser *solveSeries) any { return ser.iterations.Load() })
	perSolver("partitiond_solver_latency_seconds_max", "gauge", "Slowest single solve by solver.",
		func(ser *solveSeries) any { return time.Duration(ser.maxNanos.Load()).Seconds() })
	perSolver("partitiond_solver_in_flight", "gauge", "Engine solves currently running, by solver.",
		func(ser *solveSeries) any { return ser.inFlight.Load() })

	perPhase := func(metric, help string, value func(obs.PhaseStat) any) {
		family(w, metric, "counter", help)
		for i, name := range solvers {
			for _, phase := range sortedKeys(phases[i]) {
				fmt.Fprintf(w, "%s{solver=%q,phase=%q} %v\n", metric, name, phase, value(phases[i][phase]))
			}
		}
	}
	perPhase("partitiond_solve_phase_seconds_total", "Time spent inside each solver phase span.",
		func(ps obs.PhaseStat) any { return ps.Total.Seconds() })
	perPhase("partitiond_solve_phase_count_total", "Phase spans recorded, by solver and phase.",
		func(ps obs.PhaseStat) any { return ps.Count })
}
