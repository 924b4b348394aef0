package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/server"
)

// The response checker. Every answer — PRS1 frame, PBR1 item, JSON body or
// job result — is decoded into a server.SolveResult and checked against the
// generated graph: the echoed solver and K, the fingerprint, and a cut that
// is well formed and feasible with consistent reported weights. The
// objective is checked later, outside the timed window, against an
// in-process engine.Solve of the same key by a reference solver. A body
// byte-identical to one already checked for the same key skips the decode
// and inherits that body's objective: the server replays cached bytes, so
// hot keys cost the client one SHA-256.

// relTol is the relative tolerance of weight comparisons: the reported
// weights are sums the server computes in its own order.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// errCheck marks a response that decoded but is wrong — an incorrect
// output, as opposed to a failed request.
var errCheck = errors.New("check failed")

func checkFail(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// objectiveOf returns the value the key's solver minimises.
func objectiveOf(solver string, cutWeight, bottleneck float64, components int) (float64, error) {
	s, err := engine.Get(solver)
	if err != nil {
		return 0, err
	}
	switch engine.ObjectiveOf(s) {
	case engine.ObjectiveBandwidth:
		return cutWeight, nil
	case engine.ObjectiveBottleneck:
		return bottleneck, nil
	case engine.ObjectiveMinProcs:
		return float64(components), nil
	default:
		return 0, fmt.Errorf("solver %q has no objective the benchmark checks", solver)
	}
}

// checkAnswer checks one decoded answer for key k on graph gi and returns
// its objective value.
func checkAnswer(a *server.SolveResult, k key, gi *graphInfo) (float64, error) {
	K := gi.k(k.kmult)
	if a.Solver != k.solver {
		return 0, checkFail("solver %q, want %q", a.Solver, k.solver)
	}
	if a.K != K {
		return 0, checkFail("k %v, want %v", a.K, K)
	}
	if a.Fingerprint != gi.fp {
		return 0, checkFail("fingerprint %016x, want %016x", a.Fingerprint, gi.fp)
	}
	for i, e := range a.Cut {
		if e < 0 || e >= gi.n-1 || (i > 0 && e <= a.Cut[i-1]) {
			return 0, checkFail("cut edge %d at position %d out of range or order", e, i)
		}
	}
	var (
		cw                    []float64
		cutWeight, bottleneck float64
		err                   error
	)
	switch g := gi.g.(type) {
	case *graph.Path:
		cw, err = g.ComponentWeights(a.Cut)
		if err == nil {
			cutWeight, _ = g.CutWeight(a.Cut)
			bottleneck, _ = g.MaxCutEdgeWeight(a.Cut)
		}
	case *graph.Tree:
		cw, err = g.ComponentWeights(a.Cut)
		if err == nil {
			cutWeight, _ = g.CutWeight(a.Cut)
			bottleneck, _ = g.MaxCutEdgeWeight(a.Cut)
		}
	}
	if err != nil {
		return 0, checkFail("cut: %v", err)
	}
	if len(cw) != len(a.ComponentWeights) {
		return 0, checkFail("%d component weights, the cut gives %d", len(a.ComponentWeights), len(cw))
	}
	for i, w := range cw {
		if w > K*(1+relTol) {
			return 0, checkFail("component %d weighs %v > K=%v", i, w, K)
		}
		if !near(w, a.ComponentWeights[i]) {
			return 0, checkFail("component %d reported %v, the cut gives %v", i, a.ComponentWeights[i], w)
		}
	}
	if !near(cutWeight, a.CutWeight) {
		return 0, checkFail("cut weight %v, the cut gives %v", a.CutWeight, cutWeight)
	}
	if !near(bottleneck, a.Bottleneck) {
		return 0, checkFail("bottleneck %v, the cut gives %v", a.Bottleneck, bottleneck)
	}
	return objectiveOf(k.solver, a.CutWeight, a.Bottleneck, len(a.ComponentWeights))
}

// jsonAnswer mirrors the JSON solve response body.
type jsonAnswer struct {
	Solver           string    `json:"solver"`
	K                float64   `json:"k"`
	Cut              []int     `json:"cut"`
	CutWeight        float64   `json:"cutWeight"`
	Bottleneck       float64   `json:"bottleneck"`
	ComponentWeights []float64 `json:"componentWeights"`
	NumComponents    int       `json:"numComponents"`
	Fingerprint      string    `json:"fingerprint"`
}

// decodeJSONAnswer decodes a JSON solve response into the PRS1 view.
func decodeJSONAnswer(b []byte) (*server.SolveResult, error) {
	var j jsonAnswer
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, checkFail("json answer: %v", err)
	}
	fp, err := strconv.ParseUint(j.Fingerprint, 16, 64)
	if err != nil {
		return nil, checkFail("json fingerprint %q: %v", j.Fingerprint, err)
	}
	if j.NumComponents != len(j.ComponentWeights) {
		return nil, checkFail("numComponents %d with %d weights", j.NumComponents, len(j.ComponentWeights))
	}
	return &server.SolveResult{
		Solver: j.Solver, K: j.K, Fingerprint: fp, CutWeight: j.CutWeight,
		Bottleneck: j.Bottleneck, Cut: j.Cut, ComponentWeights: j.ComponentWeights,
	}, nil
}

// answerFormat says how an answer body is encoded.
type answerFormat uint8

const (
	formatPRS1 answerFormat = iota
	formatJSON
)

// pendingObjective is an answer whose objective awaits the reference solve.
type pendingObjective struct {
	idx int64 // the operation the answer belongs to
	k   key
	obj float64
}

// checker checks answers and collects objectives for the reference pass.
// It is safe for concurrent use.
type checker struct {
	graphOf func(id uint64) *graphInfo

	mu       sync.Mutex
	verified map[memoKey][]verifiedBody
	pending  []pendingObjective
}

type memoKey struct {
	k   key
	fmt answerFormat
}

// verifiedBody is the digest and objective of a body that passed for a
// key; replays of it inherit its objective for the reference pass.
type verifiedBody struct {
	sum [sha256.Size]byte
	obj float64
}

// memoBodies bounds the distinct passing bodies remembered per key: one
// per node that solved the key, plus a re-solve after an eviction.
const memoBodies = 4

func newChecker(graphOf func(id uint64) *graphInfo) *checker {
	return &checker{graphOf: graphOf, verified: make(map[memoKey][]verifiedBody)}
}

// check checks one answer body for key k, returned to operation idx.
func (c *checker) check(idx int64, body []byte, f answerFormat, k key, gi *graphInfo) error {
	mk := memoKey{k, f}
	sum := sha256.Sum256(body)
	c.mu.Lock()
	for _, v := range c.verified[mk] {
		if v.sum == sum {
			c.pending = append(c.pending, pendingObjective{idx: idx, k: k, obj: v.obj})
			c.mu.Unlock()
			return nil
		}
	}
	c.mu.Unlock()
	var (
		a   *server.SolveResult
		err error
	)
	if f == formatJSON {
		a, err = decodeJSONAnswer(body)
	} else {
		var rest []byte
		a, rest, err = server.DecodeSolveResult(body)
		if err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d trailing bytes", len(rest))
		}
		if err != nil {
			err = checkFail("PRS1 frame: %v", err)
		}
	}
	if err != nil {
		return err
	}
	obj, err := checkAnswer(a, k, gi)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.pending = append(c.pending, pendingObjective{idx: idx, k: k, obj: obj})
	vs := append(c.verified[mk], verifiedBody{sum: sum, obj: obj})
	if len(vs) > memoBodies {
		vs = vs[1:]
	}
	c.verified[mk] = vs
	c.mu.Unlock()
	return nil
}

// checkDecoded checks an answer that arrived already decoded (a PBR1
// item), without the byte-identity shortcut.
func (c *checker) checkDecoded(idx int64, a *server.SolveResult, k key, gi *graphInfo) error {
	obj, err := checkAnswer(a, k, gi)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.pending = append(c.pending, pendingObjective{idx: idx, k: k, obj: obj})
	c.mu.Unlock()
	return nil
}

// referenceSolver names, for each solver the workloads use, a different
// registered algorithm with the same objective, so the reference does not
// share the code under test. minproc has no such twin for trees.
var referenceSolver = map[string]string{
	"bandwidth":      "bandwidth-deque",
	"bottleneck":     "partition-tree",
	"partition-tree": "bottleneck",
	"minproc":        "minproc",
}

// reference solves key k in process with its reference solver and returns
// the objective.
func reference(k key, gi *graphInfo) (float64, error) {
	solver, ok := referenceSolver[k.solver]
	if !ok {
		return 0, fmt.Errorf("no reference solver for %q", k.solver)
	}
	req := engine.Request{Solver: solver, K: gi.k(k.kmult)}
	switch g := gi.g.(type) {
	case *graph.Path:
		req.Path = g
	case *graph.Tree:
		req.Tree = g
	}
	res, err := engine.Solve(context.Background(), req)
	if err != nil {
		return 0, fmt.Errorf("reference solve: %w", err)
	}
	return objectiveOf(k.solver, res.CutWeight, res.Bottleneck, res.NumComponents())
}

// checkObjectives compares every pending objective with the reference
// solve of its key, one solve per distinct key on nproc goroutines, and
// drains the pending list. It returns the operations whose answers
// disagreed with the reference.
func (c *checker) checkObjectives() (bad map[int64]bool, err error) {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	byKey := make(map[key][]pendingObjective)
	var keys []key
	for _, p := range pending {
		if _, ok := byKey[p.k]; !ok {
			keys = append(keys, p.k)
		}
		byKey[p.k] = append(byKey[p.k], p)
	}
	bad = make(map[int64]bool)
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan key)
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				want, rerr := reference(k, c.graphOf(k.graph))
				mu.Lock()
				if rerr != nil && err == nil {
					err = rerr
				}
				for _, p := range byKey[k] {
					if rerr != nil || !near(p.obj, want) {
						bad[p.idx] = true
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return bad, err
}
