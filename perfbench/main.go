// Command perfbench is partitiond's load benchmark. It starts real
// partitiond processes, drives them over loopback from one load generator,
// checks every answer, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run). perfbench/run.sh builds both binaries
// and runs it; see perfbench/README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	bin      string
	out      string
	commit   string
}

func run() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all (hot-binary, cold-solve, mixed-cluster)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.bin, "bin", ".bench_build/partitiond", "partitiond binary")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for server logs, trace files and result stamps")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit, for the result stamp")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1 (got %d)", o.trace)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("--seconds must be positive (got %v)", o.seconds)
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("partitiond binary: %w", err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var names []string
	if o.workload == "all" {
		for _, w := range workloads(o.seed) {
			names = append(names, w.name)
		}
	} else {
		if _, err := findWorkload(o.seed, o.workload); err != nil {
			return err
		}
		names = []string{o.workload}
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	// With every workload, the untraced runs also make one summary table:
	// a row per workload, a column per end-to-end metric.
	var summary strings.Builder
	for _, name := range names {
		traces := []int{o.trace}
		if o.workload == "all" {
			traces = []int{0, 1}
		}
		for _, tr := range traces {
			w, _ := findWorkload(o.seed, name)
			res, err := runWorkload(ctx, w, o, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if o.workload == "all" && tr == 0 {
				if summary.Len() == 0 {
					fmt.Fprintf(&summary, "%-14s", "workload")
					for _, m := range endToEnd {
						fmt.Fprintf(&summary, " %20s", m+"["+res.Metrics[m].Unit+"]")
					}
					summary.WriteByte('\n')
				}
				fmt.Fprintf(&summary, "%-14s", name)
				for _, m := range endToEnd {
					fmt.Fprintf(&summary, " %20.4f", res.Metrics[m].Value)
				}
				summary.WriteByte('\n')
			}
			final.Correct = final.Correct && res.Correct
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for k, v := range res.Metrics {
				if len(names) > 1 {
					k = name + "/" + k
				}
				final.Metrics[k] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Print(summary.String())
	fmt.Println(string(line))
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload run: the stream, the checker, the servers and the
// client connections.
type bench struct {
	w     *workloadSpec
	seed  uint64
	st    *stream
	prep  *preparer
	check *checker
	fl    *fleet
	conns []*conn
	ctl   *http.Client // control plane: health checks and scrapes

	errMu sync.Mutex
	err   error // first fatal error of a background goroutine
}

// fatal records a background failure that invalidates the run.
func (b *bench) fatal(err error) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if b.err == nil {
		b.err = err
	}
}

func (b *bench) failure() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// setupRuns is how many times a run sets partitiond up; setup_s is the
// median, each set-up scaled like the closed loop to the host's full share
// by the share of demanded CPU time delivered over it.
const setupRuns = 5

// Index bases of the windows, so no two windows share an operation (for
// cold-solve: a graph).
const (
	baseClosed int64 = 1 << 40
	baseTraced int64 = 2 << 40
)

func runWorkload(ctx context.Context, w *workloadSpec, o options, trace int) (result, error) {
	st := newStream(w, o.seed)
	b := &bench{
		w: w, seed: o.seed, st: st, prep: newPreparer(st),
		check: newChecker(st.graph),
		ctl:   &http.Client{Timeout: 10 * time.Second},
	}
	defer b.shutdown()
	digest := st.digest()

	// The warm-up bodies are built before the first exec, so set-up time
	// is partitiond's alone.
	var warm []*request
	for _, op := range w.warmup() {
		r, err := b.prep.prepare(op)
		if err != nil {
			return result{}, err
		}
		warm = append(warm, r)
	}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			b.shutdown()
		}
		c0 := readCPUStat()
		d, err := b.setup(ctx, o, warm)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds()*readCPUStat().sub(c0).delivered())
	}
	stamp, err := b.stamp(o, digest)
	if err != nil {
		return result{}, err
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# %s trace=%d seed=%d stream-digest=%s\n", w.name, trace, o.seed, digest)
	fmt.Fprintf(out, "# host %s\n", stamp)

	var res result
	if trace == 0 {
		res, err = b.measure(ctx, o, setups, out)
	} else {
		res, err = b.measureLayers(ctx, o, out)
	}
	if err != nil {
		return result{}, err
	}
	if err := b.failure(); err != nil {
		return result{}, err
	}
	printMetrics(out, w.name, res)
	return res, writeStamp(filepath.Join(o.out, fmt.Sprintf("%s-trace%d-seed%d.json", w.name, trace, o.seed)), stamp, res)
}

// setup starts the fleet, waits for it to be ready and runs the warm-up
// pass; it returns the time from exec to warm-up done.
func (b *bench) setup(ctx context.Context, o options, warm []*request) (time.Duration, error) {
	t0 := time.Now()
	fl, err := startFleet(o.bin, b.w.nodes, o.out)
	if err != nil {
		return 0, err
	}
	b.fl = fl
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := fl.waitReady(rctx, b.ctl); err != nil {
		return 0, err
	}
	nconns := runtime.NumCPU()
	for i := 0; i < nconns; i++ {
		b.conns = append(b.conns, newConn(fl.nodes[i%len(fl.nodes)].base))
	}
	// The warm-up runs closed-loop over every connection; each operation
	// must succeed.
	next := make(chan *request)
	errs := make(chan error, len(b.conns))
	var wg sync.WaitGroup
	for _, c := range b.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				if o := b.execute(rctx, c, r, nil, 0, 0); o.err != nil {
					errs <- fmt.Errorf("warm-up op %d (%s): %w", r.op.idx, r.op.route, o.err)
					return
				}
			}
		}()
	}
	var werr error
feed:
	for _, r := range warm {
		select {
		case next <- r:
		case werr = <-errs:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if werr == nil && len(errs) > 0 {
		werr = <-errs
	}
	if werr != nil {
		return 0, werr
	}
	return time.Since(t0), nil
}

// shutdown closes the client connections and stops the fleet.
func (b *bench) shutdown() {
	for _, c := range b.conns {
		c.close()
	}
	b.conns = nil
	if b.fl != nil {
		b.fl.stop()
		b.fl = nil
	}
}

// scrapeAll sums every node's /metrics.
func (b *bench) scrapeAll() (promSnapshot, error) {
	total := make(promSnapshot)
	for _, base := range b.fl.bases() {
		s, err := scrape(b.ctl, base)
		if err != nil {
			return nil, err
		}
		total.add(s)
	}
	return total, nil
}

// window is a measured stretch of traffic: samples plus the server-side
// deltas over it.
type window struct {
	samples []sample
	cpu     time.Duration
	metrics promSnapshot // delta
	after   promSnapshot // absolute, for gauges
}

// observe runs f and captures server CPU and /metrics around it.
func (b *bench) observe(f func() []sample) (window, error) {
	before, err := b.scrapeAll()
	if err != nil {
		return window{}, err
	}
	c0, err := b.fl.cpuTicks()
	if err != nil {
		return window{}, err
	}
	samples := f()
	c1, err := b.fl.cpuTicks()
	if err != nil {
		return window{}, err
	}
	after, err := b.scrapeAll()
	if err != nil {
		return window{}, err
	}
	return window{samples: samples, cpu: time.Duration(c1-c0) * clockTick, metrics: delta(before, after), after: after}, nil
}

// markIncorrect applies the reference pass's verdicts to the samples.
func markIncorrect(samples []sample, bad map[int64]bool) {
	for i := range samples {
		if bad[samples[i].idx] && samples[i].err == nil {
			samples[i].err = checkFail("objective differs from the in-process reference")
			samples[i].incorrect = true
		}
	}
}

// tally counts attempts, failures and incorrect answers.
func tally(samples ...[]sample) (attempted, failed int, correct bool) {
	correct = true
	for _, ss := range samples {
		for _, s := range ss {
			attempted++
			if s.err != nil {
				failed++
			}
			if s.incorrect {
				correct = false
			}
		}
	}
	return attempted, failed, correct
}

// reportFailures prints the first few failures to stderr.
func reportFailures(samples []sample) {
	shown := 0
	for _, s := range samples {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op %d (%s) failed: %v\n", s.idx, s.route, s.err)
			shown++
		}
	}
}

// percentile returns the q-quantile (nearest rank) of vals; failed
// operations are passed as +Inf and sort last.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// printMetrics prints one row per metric: workload, name, value, unit.
func printMetrics(w *bufio.Writer, name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "# %s attempted=%d failed=%d correct=%t\n", name, res.Attempted, res.Failed, res.Correct)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-14s %-28s %14.4f %s\n", name, k, m.Value, m.Unit)
	}
}

// writeStamp writes the host stamp and the result to path.
func writeStamp(path string, stamp hostStamp, res result) error {
	b, err := json.MarshalIndent(struct {
		Host   hostStamp `json:"host"`
		Result result    `json:"result"`
	}{stamp, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostStamp identifies the host and build a result came from.
type hostStamp struct {
	Workload       string   `json:"workload"`
	StreamDigest   string   `json:"streamDigest"`
	NProc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	GoVersion      string   `json:"goVersion"`
	CPUModel       string   `json:"cpuModel"`
	Commit         string   `json:"commit"`
	PartitiondArgs []string `json:"partitiondArgs"`
	BuildInfo      string   `json:"partitiondBuild"`
}

func (h hostStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s build=%s partitiond=%q",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit, h.BuildInfo, strings.Join(h.PartitiondArgs, " | "))
}

func (b *bench) stamp(o options, digest string) (hostStamp, error) {
	h := hostStamp{
		Workload: b.w.name, StreamDigest: digest,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: o.commit, PartitiondArgs: b.fl.flags(),
	}
	m, err := scrape(b.ctl, b.fl.nodes[0].base)
	if err != nil {
		return h, err
	}
	for k := range m {
		if s, _, err := parseSeries(k); err == nil && s.name == "partitiond_build_info" {
			h.BuildInfo = s.labels["version"] + "/" + s.labels["go_version"]
		}
	}
	return h, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// errNoSamples is returned when a window completed nothing.
var errNoSamples = errors.New("window completed no operations")
