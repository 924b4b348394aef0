package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/workload"
)

// route is the partitiond endpoint and encoding one operation uses.
type route uint8

const (
	routeBinSolve  route = iota // PSV1 → PRS1 on /v1/solve
	routeJSONSolve              // JSON on /v1/solve
	routeBatch                  // PBT1 → PBR1 on /v1/batch
	routeJob                    // PSV1 on /v1/jobs, SSE to the terminal event, then the status
	numRoutes
)

var routeNames = [numRoutes]string{"bin-solve", "json-solve", "batch", "job"}

func (r route) String() string { return routeNames[r] }

// key names one solve: a generated graph, a solver, and K as a multiple of
// the graph's heaviest node. The graph itself is a pure function of the
// workload seed and the graph id, so any key can be regenerated after the
// timed window for reference checks.
type key struct {
	graph  uint64
	solver string
	kmult  float64
}

// shape is the generator input for one graph.
type shape struct {
	tree bool
	n    int
}

// op is one operation of a workload's request stream. Every field derives
// from (seed, idx) alone.
type op struct {
	idx   int64
	route route
	keys  []key // one key, or batchItems keys for routeBatch
}

// kLadder is the K ladder of the paths and trees the workloads ask about:
// from a tight bound (many components, long prime subpaths) to a loose one.
var kLadder = [...]float64{1.2, 2, 5, 20}

// batchItems is the item count of every /v1/batch operation.
const batchItems = 8

// workloadSpec defines one benchmark workload.
type workloadSpec struct {
	name string
	// nodes is the partitiond process count (1, or 3 for a cluster).
	nodes int
	// rate is the open-loop offered rate in operations per second, set at
	// a fifth to a third of the closed-loop capacity the seed commit
	// reached on a 2-vCPU Xeon host, so the server stays far below
	// saturation when a shared host loses a third of its CPU to its
	// neighbours.
	rate float64
	// shape gives the graph shape of a graph id.
	shape func(seed, id uint64) shape
	// op builds stream operation idx from its own generator.
	op func(r *workload.RNG, idx int64) op
	// warmup lists the operations of the set-up pass, which runs before
	// anything is timed. Their indices are negative so they never collide
	// with the stream.
	warmup func() []op
	// cachedGraphs bounds the graph ids kept in memory after generation;
	// ids at or above it are regenerated on every use.
	cachedGraphs uint64
}

// mix folds values into one well-spread 64-bit generator seed.
func mix(vals ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3)
	for _, v := range vals {
		h ^= v
		h = workload.NewRNG(h).Uint64()
	}
	return h
}

// Seed-stream tags keep the generators of ops, shapes and graph weights
// independent of one another.
const (
	tagOp uint64 = iota + 1
	tagShape
	tagGraph
	tagRoute
)

// logUniform draws an integer in [lo, hi] with a log-uniform distribution,
// so small and large graphs are equally represented per decade.
func logUniform(r *workload.RNG, lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), r.Float64())))
}

// hotGraphs is the fixed graph pool of hot-binary: sizes spaced
// geometrically from 5·10³ to 2·10⁵ nodes, alternating path and tree. The
// count is odd so that, with every graph asked equally often, the median
// request falls in the middle of one graph's latencies, not on the step
// between two.
const hotGraphs = 9

func hotShape(_, id uint64) shape {
	n := 5000 * math.Pow(40, float64(id)/float64(hotGraphs-1))
	return shape{tree: id%2 == 1, n: int(math.Round(n))}
}

// hotKeys is the size of hot-binary's key pool.
const hotKeys = hotGraphs * len(kLadder)

// hotKey is key i of the hot-binary pool: every graph at every rung of the
// K ladder, paths on the paper's bandwidth solver and trees on minproc.
func hotKey(i int) key {
	g := uint64(i / len(kLadder))
	solver := "bandwidth"
	if hotShape(0, g).tree {
		solver = "minproc"
	}
	return key{graph: g, solver: solver, kmult: kLadder[i%len(kLadder)]}
}

// blockSlot returns the slot of stream position idx in its block of n
// positions: each block is a seeded permutation of [0, n), so every block
// holds each slot exactly once and only the order varies with the seed.
func blockSlot(seed, tag uint64, idx int64, n int) int {
	perm := workload.NewRNG(mix(seed, tag, uint64(idx/int64(n)))).Perm(n)
	return perm[idx%int64(n)]
}

// coldWarmupBase is the first graph id of cold-solve's warm-up graphs,
// disjoint from the stream's ids (which equal the op index).
const coldWarmupBase = 1 << 62

// coldBlock is the block length of cold-solve's class schedule: 36 paths,
// nine at each rung of the K ladder, and 12 trees, one per tree solver and
// rung, so every block offers exactly the same mix.
const (
	coldBlock = 48
	coldPaths = 36
)

// coldSlot returns the class slot of cold-solve graph id.
func coldSlot(seed, id uint64) int { return blockSlot(seed, tagShape, int64(id), coldBlock) }

// coldShape stratifies path sizes over the block, a ninth of the
// log-uniform range per rung-group of four, so each block spans the range.
func coldShape(seed, id uint64) shape {
	slot := coldSlot(seed, id)
	r := workload.NewRNG(mix(seed, tagShape, id))
	if slot >= coldPaths {
		return shape{tree: true, n: logUniform(r, 4000, 10000)}
	}
	u := (float64(slot/len(kLadder)) + r.Float64()) / float64(coldPaths/len(kLadder))
	return shape{n: int(math.Round(20000 * math.Pow(2, u)))}
}

var coldTreeSolvers = [...]string{"minproc", "bottleneck", "partition-tree"}

// mixedRanks is the size of mixed-cluster's key space. Keys are drawn by a
// Zipf(1) law over ranks; rank r is graph r/4 at ladder rung r%4, so a
// popular graph is asked at several K. With ~3000 draws per run about half
// of them repeat an earlier key.
const mixedRanks = 16384

var mixedZipf = zipfCDF(mixedRanks, 1.0)

// zipfCDF returns the cumulative distribution of a Zipf(s) law over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// mixedShape spreads sizes over 2·10³–2·10⁴ nodes log-uniformly by a
// golden-ratio sequence over the graph id, and makes every third graph a
// tree. Shapes do not depend on the seed: the few most popular graphs carry
// much of the traffic, and seeds that drew them at different sizes would
// measure different workloads. The seed still sets every weight and the
// order of draws.
func mixedShape(_, id uint64) shape {
	u := math.Mod(float64(id)*0.6180339887498949, 1)
	return shape{tree: id%3 == 2, n: int(math.Round(2000 * math.Pow(10, u)))}
}

// mixedKey is the key of Zipf rank r: paths on bandwidth, trees on
// minproc.
func mixedKey(r int) key {
	g := uint64(r / len(kLadder))
	solver := "bandwidth"
	if mixedShape(0, g).tree {
		solver = "minproc"
	}
	return key{graph: g, solver: solver, kmult: kLadder[r%len(kLadder)]}
}

// mixedRoutes is one block of mixed-cluster's route mix: 50% binary solve,
// 20% JSON solve, 15% batch, 15% job.
var mixedRoutes = [...]route{
	routeBinSolve, routeBinSolve, routeBinSolve, routeBinSolve, routeBinSolve,
	routeBinSolve, routeBinSolve, routeBinSolve, routeBinSolve, routeBinSolve,
	routeJSONSolve, routeJSONSolve, routeJSONSolve, routeJSONSolve,
	routeBatch, routeBatch, routeBatch,
	routeJob, routeJob, routeJob,
}

// mixedRoute is the route of op idx: each block of len(mixedRoutes) ops
// holds the exact mix in a seeded order, so every seed offers the same mix
// and only the order varies.
func mixedRoute(seed uint64, idx int64) route {
	return mixedRoutes[blockSlot(seed, tagRoute, idx, len(mixedRoutes))]
}

func mixedDraw(r *workload.RNG) int {
	return sort.SearchFloat64s(mixedZipf, r.Float64())
}

// workloads builds the workload table for one seed.
func workloads(seed uint64) []*workloadSpec {
	hot := &workloadSpec{
		name:  "hot-binary",
		nodes: 1,
		rate:  60,
		shape: hotShape,
		op: func(_ *workload.RNG, idx int64) op {
			return op{idx: idx, route: routeBinSolve, keys: []key{hotKey(blockSlot(seed, tagOp, idx, hotKeys))}}
		},
		warmup: func() []op {
			ops := make([]op, hotKeys)
			for i := range ops {
				ops[i] = op{idx: -1 - int64(i), route: routeBinSolve, keys: []key{hotKey(i)}}
			}
			return ops
		},
		cachedGraphs: hotGraphs,
	}
	cold := &workloadSpec{
		name:  "cold-solve",
		nodes: 1,
		rate:  50,
		shape: coldShape,
		op: func(_ *workload.RNG, idx int64) op {
			return op{idx: idx, route: routeBinSolve, keys: []key{coldKey(seed, uint64(idx))}}
		},
		warmup: func() []op {
			ops := make([]op, 16)
			for i := range ops {
				g := uint64(coldWarmupBase + i)
				ops[i] = op{idx: -1 - int64(i), route: routeBinSolve, keys: []key{coldKey(seed, g)}}
			}
			return ops
		},
	}
	mixed := &workloadSpec{
		name:  "mixed-cluster",
		nodes: 3,
		rate:  50,
		shape: mixedShape,
		op: func(r *workload.RNG, idx int64) op {
			o := op{idx: idx, route: mixedRoute(seed, idx)}
			n := 1
			if o.route == routeBatch {
				n = batchItems
			}
			for i := 0; i < n; i++ {
				o.keys = append(o.keys, mixedKey(mixedDraw(r)))
			}
			return o
		},
		warmup: func() []op {
			// The 32 most popular keys, one per route in turn, so every
			// route and every node connection is exercised before timing.
			ops := make([]op, 32)
			for i := range ops {
				rt := route(i % int(numRoutes))
				o := op{idx: -1 - int64(i), route: rt, keys: []key{mixedKey(i)}}
				if rt == routeBatch {
					o.keys = nil
					for j := 0; j < batchItems; j++ {
						o.keys = append(o.keys, mixedKey((i+j)%32))
					}
				}
				ops[i] = o
			}
			return ops
		},
		cachedGraphs: 256,
	}
	return []*workloadSpec{hot, cold, mixed}
}

// coldKey is the key of cold-solve graph id: paths on the paper's
// bandwidth solver, trees spread over the three tree solvers, each at the
// rung of its slot.
func coldKey(seed, id uint64) key {
	slot := coldSlot(seed, id)
	if slot >= coldPaths {
		t := slot - coldPaths
		return key{graph: id, solver: coldTreeSolvers[t/len(kLadder)], kmult: kLadder[t%len(kLadder)]}
	}
	return key{graph: id, solver: "bandwidth", kmult: kLadder[slot%len(kLadder)]}
}

// stream is one workload's deterministic request stream under one seed.
type stream struct {
	w    *workloadSpec
	seed uint64

	mu     sync.Mutex
	graphs map[uint64]*graphInfo
}

func newStream(w *workloadSpec, seed uint64) *stream {
	return &stream{w: w, seed: seed, graphs: make(map[uint64]*graphInfo)}
}

// op returns stream operation idx.
func (s *stream) op(idx int64) op {
	return s.w.op(workload.NewRNG(mix(s.seed, tagOp, uint64(idx))), idx)
}

// graphInfo is a generated graph with the facts the checker compares
// responses against.
type graphInfo struct {
	g    any // *graph.Path or *graph.Tree
	n    int
	fp   uint64
	wmax float64
}

// k returns the bound K of a key on this graph.
func (gi *graphInfo) k(kmult float64) float64 { return kmult * gi.wmax }

// graph returns graph id, generating it on first use. Graphs below the
// workload's cachedGraphs bound stay in memory.
func (s *stream) graph(id uint64) *graphInfo {
	cache := id < s.w.cachedGraphs
	if cache {
		s.mu.Lock()
		gi := s.graphs[id]
		s.mu.Unlock()
		if gi != nil {
			return gi
		}
	}
	gi := generateGraph(s.w.shape(s.seed, id), mix(s.seed, tagGraph, id))
	if cache {
		s.mu.Lock()
		if old := s.graphs[id]; old != nil {
			gi = old
		} else {
			s.graphs[id] = gi
		}
		s.mu.Unlock()
	}
	return gi
}

// generateGraph builds one graph with U[1,100] node and edge weights, the
// paper's Figure 2 distribution.
func generateGraph(sh shape, seed uint64) *graphInfo {
	r := workload.NewRNG(seed)
	w := workload.UniformWeights(1, 100)
	gi := &graphInfo{n: sh.n}
	if sh.tree {
		t := workload.RandomTree(r, sh.n, w, w)
		gi.g, gi.fp, gi.wmax = t, graph.FingerprintTree(t), t.MaxNodeWeight()
	} else {
		p := workload.RandomPath(r, sh.n, w, w)
		gi.g, gi.fp, gi.wmax = p, graph.FingerprintPath(p), p.MaxNodeWeight()
	}
	return gi
}

// digestOps is how many stream operations the digest covers.
const digestOps = 2048

// digest summarises the first digestOps operations of the stream — route,
// keys and graph shapes — plus the fingerprints of the first few graphs,
// which pins the weight generator too.
func (s *stream) digest() string {
	h := sha256.New()
	var buf []byte
	for i := int64(0); i < digestOps; i++ {
		o := s.op(i)
		buf = binary.AppendVarint(buf[:0], o.idx)
		buf = append(buf, byte(o.route))
		for _, k := range o.keys {
			sh := s.w.shape(s.seed, k.graph)
			buf = binary.AppendUvarint(buf, k.graph)
			buf = append(buf, k.solver...)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(k.kmult))
			buf = binary.AppendUvarint(buf, uint64(sh.n))
			if sh.tree {
				buf = append(buf, 't')
			}
		}
		if i < 4 {
			buf = binary.LittleEndian.AppendUint64(buf, s.graph(o.keys[0].graph).fp)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// findWorkload looks a workload up by name.
func findWorkload(seed uint64, name string) (*workloadSpec, error) {
	for _, w := range workloads(seed) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
