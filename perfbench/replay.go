package main

import (
	"context"
	"time"

	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hitting"
	"repro/internal/obs"
	"repro/internal/prime"
	"repro/internal/workload"
)

// The replay: after the traced window, a seeded sample of the window's
// operations is run again one key at a time, in process, through the
// public functions of each layer, with nothing else running. Each call is
// timed under its own span; the engine's phase spans nest under "solve".

// replayOps is the number of operations the replay samples.
const replayOps = 48

// stat accumulates a count and a total duration.
type stat struct {
	n     int
	total time.Duration
}

func (s *stat) add(d time.Duration) { s.n++; s.total += d }

// meanMs is the mean in milliseconds, 0 when nothing was recorded.
func (s stat) meanMs() float64 {
	if s.n == 0 {
		return 0
	}
	return ms(s.total) / float64(s.n)
}

// replayStats are the replay's per-function totals.
type replayStats struct {
	decode, fingerprint, validate, solve stat
	decodeBytes                          int64
	phases                               map[string]*stat
	analyze, temps                       stat
	primeP, primeQ                       float64 // sums over analyze calls
}

// replay runs the sample and records its spans in rec.
func (b *bench) replay(samples []sample, rec *recorder) (replayStats, error) {
	rs := replayStats{phases: make(map[string]*stat)}
	r := workload.NewRNG(mix(b.seed, 0x7265706c6179))
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	// Partial Fisher–Yates: the first replayOps positions are the sample.
	for i := 0; i < len(idx) && i < replayOps; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	for i := 0; i < len(idx) && i < replayOps; i++ {
		s := samples[idx[i]]
		for _, k := range s.keys {
			if err := b.replayKey(k, s.idx, rec, &rs); err != nil {
				return rs, err
			}
		}
	}
	return rs, nil
}

// timed runs f under a span and returns its duration.
func timed(rec *recorder, tid int64, parent int32, layer, name string, f func() error) (time.Duration, int32, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	return end.Sub(start), rec.add(tid, parent, layer, name, start, end), err
}

func (b *bench) replayKey(k key, tid int64, rec *recorder, rs *replayStats) error {
	gi := b.st.graph(k.graph)
	wire, err := codec.Append(nil, gi.g)
	if err != nil {
		return err
	}
	root := rec.open(tid, "replay", "replay", time.Now())
	defer func() { rec.end(root, time.Now()) }()

	var g any
	d, _, err := timed(rec, tid, root, "codec", "decode", func() error {
		var derr error
		g, _, _, derr = codec.Decode(wire, codec.Options{})
		return derr
	})
	if err != nil {
		return err
	}
	rs.decode.add(d)
	rs.decodeBytes += int64(len(wire))

	d, _, err = timed(rec, tid, root, "graph", "fingerprint", func() error {
		_, ferr := graph.Fingerprint(g)
		return ferr
	})
	if err != nil {
		return err
	}
	rs.fingerprint.add(d)

	d, _, err = timed(rec, tid, root, "graph", "validate", func() error {
		switch g := g.(type) {
		case *graph.Path:
			return g.Validate()
		case *graph.Tree:
			return g.Validate()
		}
		return nil
	})
	if err != nil {
		return err
	}
	rs.validate.add(d)

	req := engine.Request{Solver: k.solver, K: gi.k(k.kmult)}
	switch g := g.(type) {
	case *graph.Path:
		req.Path = g
	case *graph.Tree:
		req.Tree = g
	}
	tr := obs.New("replay")
	d, solveSpan, err := timed(rec, tid, root, "engine", "solve", func() error {
		_, serr := engine.Solve(obs.NewContext(context.Background(), tr), req)
		return serr
	})
	tr.Finish()
	if err != nil {
		return err
	}
	rs.solve.add(d)
	tree := tr.Tree()
	base := tr.Root().Start
	for _, c := range tree.Children {
		rec.graft(tid, solveSpan, "engine", base, c)
	}
	addPhases(tree, rs.phases)

	if p, ok := g.(*graph.Path); ok && k.solver == "bandwidth" {
		var inst *prime.Instance
		d, _, err = timed(rec, tid, root, "prime", "prime.analyze", func() error {
			var aerr error
			inst, _, aerr = prime.Analyze(p.NodeW, p.EdgeW, req.K)
			return aerr
		})
		if err != nil {
			return err
		}
		rs.analyze.add(d)
		rs.primeP += float64(inst.NumIntervals())
		rs.primeQ += inst.MeanCoverage()
		d, _, err = timed(rec, tid, root, "hitting", "hitting.temps", func() error {
			_, terr := hitting.SolveTempS(&hitting.Instance{Beta: inst.Beta, A: inst.A, B: inst.B})
			return terr
		})
		if err != nil {
			return err
		}
		rs.temps.add(d)
	}
	return nil
}

// addPhases totals the engine's phase spans by name. The root (the replay
// trace) and the solver span are skipped: their time is the solve's.
func addPhases(root *obs.SpanNode, phases map[string]*stat) {
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		if depth >= 2 {
			st := phases[n.Name]
			if st == nil {
				st = &stat{}
				phases[n.Name] = st
			}
			st.add(time.Duration(n.DurationUs) * time.Microsecond)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}
