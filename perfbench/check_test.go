package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/server"
)

// solveOnServer returns partitiond's PRS1 answer for key k on graph gi.
func solveOnServer(t *testing.T, k key, gi *graphInfo) []byte {
	t.Helper()
	srv := httptest.NewServer(server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler())
	defer srv.Close()
	body, err := server.AppendSolveRequest(nil, server.SolveParams{Solver: k.solver, K: gi.k(k.kmult)}, gi.g)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", codec.ContentType)
	req.Header.Set("Accept", codec.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frame, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d, %v: %s", resp.StatusCode, err, frame)
	}
	return frame
}

func testGraph(tree bool) (*graphInfo, func(uint64) *graphInfo) {
	gi := generateGraph(shape{tree: tree, n: 400}, 42)
	return gi, func(uint64) *graphInfo { return gi }
}

func TestCheckerPassesServerAnswers(t *testing.T) {
	for _, k := range []key{{solver: "bandwidth", kmult: 2}, {solver: "minproc", kmult: 5}, {solver: "bottleneck", kmult: 1.2}} {
		gi, graphOf := testGraph(k.solver != "bandwidth")
		c := newChecker(graphOf)
		frame := solveOnServer(t, k, gi)
		if err := c.check(1, frame, formatPRS1, k, gi); err != nil {
			t.Fatalf("%s: %v", k.solver, err)
		}
		// A replayed body passes through the byte-identity shortcut.
		if err := c.check(2, frame, formatPRS1, k, gi); err != nil {
			t.Fatalf("%s replay: %v", k.solver, err)
		}
		bad, err := c.checkObjectives()
		if err != nil || len(bad) != 0 {
			t.Fatalf("%s: reference pass: bad=%v err=%v", k.solver, bad, err)
		}
	}
}

// prs1Offsets returns the offsets of the fingerprint and cut-weight fields
// of a PRS1 frame: magic, flags, solver string, then k.
func prs1Offsets(frame []byte) (fp, cutWeight int) {
	n, sz := binary.Uvarint(frame[5:])
	fp = 5 + sz + int(n) + 8
	return fp, fp + 8
}

func TestCheckerRejectsTamperedFrames(t *testing.T) {
	k := key{solver: "bandwidth", kmult: 2}
	gi, graphOf := testGraph(false)
	frame := solveOnServer(t, k, gi)
	fpOff, cwOff := prs1Offsets(frame)
	tampers := map[string]func(b []byte){
		"fingerprint": func(b []byte) { b[fpOff] ^= 1 },
		"cut weight": func(b []byte) {
			w := math.Float64frombits(binary.LittleEndian.Uint64(b[cwOff:]))
			binary.LittleEndian.PutUint64(b[cwOff:], math.Float64bits(w+1))
		},
		"last component weight": func(b []byte) {
			off := len(b) - 8
			w := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
			binary.LittleEndian.PutUint64(b[off:], math.Float64bits(w*2))
		},
		"truncated": func(b []byte) {},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			c := newChecker(graphOf)
			b := append([]byte(nil), frame...)
			tamper(b)
			if name == "truncated" {
				b = b[:len(b)-3]
			}
			err := c.check(1, b, formatPRS1, k, gi)
			if !errors.Is(err, errCheck) {
				t.Fatalf("tampered frame: err = %v, want a check failure", err)
			}
		})
	}
	// A verified frame must not vouch for a different one.
	c := newChecker(graphOf)
	if err := c.check(1, frame, formatPRS1, k, gi); err != nil {
		t.Fatal(err)
	}
	b := append([]byte(nil), frame...)
	b[fpOff] ^= 1
	if err := c.check(2, b, formatPRS1, k, gi); !errors.Is(err, errCheck) {
		t.Fatalf("tampered replay: err = %v, want a check failure", err)
	}
}

func TestCheckerRejectsInfeasibleCut(t *testing.T) {
	k := key{solver: "bandwidth", kmult: 2}
	gi, _ := testGraph(false)
	p := gi.g.(*graph.Path)
	// No cut: one component of the whole path, far heavier than K.
	a := &server.SolveResult{Solver: k.solver, K: gi.k(k.kmult), Fingerprint: gi.fp,
		ComponentWeights: []float64{p.TotalNodeWeight()}}
	if _, err := checkAnswer(a, k, gi); !errors.Is(err, errCheck) {
		t.Fatalf("infeasible cut: err = %v, want a check failure", err)
	}
}

func TestReferencePassFlagsSuboptimalAnswer(t *testing.T) {
	k := key{solver: "bandwidth", kmult: 2}
	gi, graphOf := testGraph(false)
	p := gi.g.(*graph.Path)
	// Cutting every edge is feasible but never optimal.
	cut := make([]int, gi.n-1)
	for i := range cut {
		cut[i] = i
	}
	cw, _ := p.ComponentWeights(cut)
	total, _ := p.CutWeight(cut)
	maxEdge, _ := p.MaxCutEdgeWeight(cut)
	a := &server.SolveResult{Solver: k.solver, K: gi.k(k.kmult), Fingerprint: gi.fp,
		Cut: cut, CutWeight: total, Bottleneck: maxEdge, ComponentWeights: cw}
	c := newChecker(graphOf)
	if err := c.checkDecoded(9, a, k, gi); err != nil {
		t.Fatalf("feasible answer rejected before the reference pass: %v", err)
	}
	bad, err := c.checkObjectives()
	if err != nil {
		t.Fatal(err)
	}
	if !bad[9] {
		t.Fatal("reference pass accepted a suboptimal objective")
	}
}

func TestJSONAnswerDecodes(t *testing.T) {
	gi := generateGraph(shape{n: 50}, 3)
	k := key{solver: "bandwidth", kmult: 5}
	body := []byte(`{"solver":"bandwidth","k":1,"cut":[],"cutWeight":0,"bottleneck":0,"componentWeights":[1],"numComponents":1,"fingerprint":"00000000000000ff"}`)
	a, err := decodeJSONAnswer(body)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != 0xff || a.Solver != "bandwidth" {
		t.Fatalf("decoded %+v", a)
	}
	if _, err := checkAnswer(a, k, gi); !errors.Is(err, errCheck) {
		t.Fatalf("wrong-K answer: err = %v, want a check failure", err)
	}
}
