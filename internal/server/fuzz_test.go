package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/workload"
)

// fuzzServer is a server for the decoder fuzz targets, with a node limit
// small enough that a hostile count is rejected without a large allocation.
func fuzzServer(f *testing.F) *Server {
	s := New(Config{Logger: quietLogger(), MaxNodes: 1 << 12})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.jobs.Shutdown(ctx)
	})
	return s
}

// fuzzPath is the wire tests' deterministic random path.
func fuzzPath(n int, seed uint64) *graph.Path {
	return workload.RandomPath(workload.NewRNG(seed), n, workload.UniformWeights(1, 100), workload.UniformWeights(1, 100))
}

// wireSeedFrames are the PSV1 frames the wire tests send: plain, verified,
// traced and noCache solves on small paths, plus a frame whose
// maxComponents overflows.
func wireSeedFrames(f *testing.F) [][]byte {
	p, q := fuzzPath(8, 4), fuzzPath(32, 1)
	var frames [][]byte
	for _, sp := range []struct {
		params SolveParams
		g      any
	}{
		{SolveParams{Solver: "bandwidth", K: 4 * p.MaxNodeWeight()}, p},
		{SolveParams{Solver: "bandwidth", K: 4 * q.MaxNodeWeight(), Verify: true}, q},
		{SolveParams{Solver: "bottleneck", K: 400, MaxComponents: 3, TimeoutMs: 50, Trace: true, NoCache: true}, q},
		{SolveParams{Solver: "", K: 1}, p},
	} {
		b, err := AppendSolveRequest(nil, sp.params, sp.g)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, b)
	}
	overflow := append([]byte(nil), solveReqMagic...)
	overflow = append(overflow, 0)
	overflow = appendF64(overflow, 100)
	overflow = append(overflow, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // maxComponents 1<<40
	overflow = append(overflow, 0)
	overflow = appendString(overflow, "bandwidth")
	overflow, err := codec.Append(overflow, fuzzPath(4, 1))
	if err != nil {
		f.Fatal(err)
	}
	return append(frames, overflow)
}

// FuzzParseBinarySolve feeds arbitrary bytes to the PSV1 decoder. It must
// never panic, must consume a prefix of its input, and a frame it accepts
// must re-encode to a frame that decodes to the same request and graph.
func FuzzParseBinarySolve(f *testing.F) {
	s := fuzzServer(f)
	for _, b := range wireSeedFrames(f) {
		f.Add(b)
		f.Add(b[:len(b)-5])
		f.Add(append(append([]byte(nil), b...), 0xEE))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, rest, err := s.parseBinarySolve(b)
		if len(rest) > len(b) || !bytes.Equal(rest, b[len(b)-len(rest):]) {
			t.Fatalf("rest is not a suffix of the input")
		}
		if err != nil {
			return
		}
		defer s.releaseParsed(&p)
		again, err := AppendSolveRequest(nil, SolveParams{
			Solver:        p.req.Solver,
			K:             p.req.K,
			MaxComponents: p.req.MaxComponents,
			TimeoutMs:     p.req.TimeoutMs,
			NoCache:       p.req.NoCache,
			Verify:        p.req.Verify,
			Trace:         p.req.Trace,
		}, p.g)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		q, rest2, err := s.parseBinarySolve(again)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded frame does not decode: %v (%d trailing)", err, len(rest2))
		}
		defer s.releaseParsed(&q)
		if q.key() != p.key() || q.req.TimeoutMs != p.req.TimeoutMs ||
			q.req.NoCache != p.req.NoCache || q.req.Trace != p.req.Trace {
			t.Fatalf("round trip changed the request: %+v vs %+v", q.req, p.req)
		}
	})
}

// FuzzParseBinaryBatch feeds arbitrary bytes to the PBT1 decoder. It must
// never panic, and an accepted batch must hold, per item, exactly one of a
// graph or an error message.
func FuzzParseBinaryBatch(f *testing.F) {
	s := fuzzServer(f)
	p1, p2 := fuzzPath(32, 1), fuzzPath(48, 2)
	good, err := AppendBatchRequest(nil, 0, []SolveParams{
		{Solver: "bandwidth", K: 4 * p1.MaxNodeWeight()},
		{Solver: "", K: 1},
		{Solver: "bandwidth", K: 4 * p2.MaxNodeWeight()},
	}, []any{p1, p1, p2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-5])
	empty, _ := AppendBatchRequest(nil, 0, nil, nil)
	f.Add(empty)
	for _, frame := range wireSeedFrames(f) {
		f.Add(frame) // a solve frame on the batch route
		one := append([]byte(nil), batchReqMagic...)
		one = append(one, 25, 1) // timeoutMs 25, count 1
		f.Add(append(one, frame...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		parsed, errMsgs, timeoutMs, err := s.parseBinaryBatch(b)
		if err != nil {
			if parsed != nil || errMsgs != nil {
				t.Fatal("a rejected batch returned items")
			}
			return
		}
		defer func() {
			for i := range parsed {
				s.releaseParsed(&parsed[i])
			}
		}()
		if timeoutMs < 0 || len(parsed) == 0 || len(parsed) != len(errMsgs) || len(parsed) > s.cfg.MaxBatchRequests {
			t.Fatalf("accepted batch: %d items, %d messages, timeout %d", len(parsed), len(errMsgs), timeoutMs)
		}
		for i := range parsed {
			if (parsed[i].g == nil) == (errMsgs[i] == "") {
				t.Fatalf("item %d: graph %v, error %q — want exactly one", i, parsed[i].g != nil, errMsgs[i])
			}
		}
	})
}

// FuzzDecodeSolveResult feeds arbitrary bytes to the PRS1 decoder, which
// every JSON solve response passes through. It must never panic, and a frame
// it accepts must either render to JSON that carries the decoded cut and
// weights, or fail to render with an error.
func FuzzDecodeSolveResult(f *testing.F) {
	s := fuzzServer(f)
	h := s.Handler()
	for _, frame := range wireSeedFrames(f)[:2] {
		rec := doBin(h, "/v1/solve", frame, codec.ContentType)
		if rec.Code != http.StatusOK {
			f.Fatalf("seed solve = %d: %s", rec.Code, rec.Body)
		}
		b := rec.Body.Bytes()
		f.Add(b)
		f.Add(b[:len(b)-3])
		f.Add(append(append([]byte(nil), b...), 0xEE))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sr, rest, err := DecodeSolveResult(b)
		if err != nil {
			return
		}
		if len(rest) > len(b) || !bytes.Equal(rest, b[len(b)-len(rest):]) {
			t.Fatalf("rest is not a suffix of the input")
		}
		body, err := renderJSONResult(b[:len(b)-len(rest)], nil, "")
		if err != nil {
			return // e.g. a NaN weight, which JSON cannot carry
		}
		var resp solveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("rendered JSON does not parse: %v\n%s", err, body)
		}
		// JSON carries invalid UTF-8 as U+FFFD, so only a valid name must
		// survive unchanged.
		if len(resp.Cut) != len(sr.Cut) || len(resp.ComponentWeights) != len(sr.ComponentWeights) ||
			(utf8.ValidString(sr.Solver) && resp.Solver != sr.Solver) || (resp.Verify == nil) != (sr.Verify == nil) {
			t.Fatalf("rendered JSON disagrees with the decoded frame:\n%s", body)
		}
		for i := range sr.Cut {
			if resp.Cut[i] != sr.Cut[i] {
				t.Fatalf("cut[%d] = %d, decoded %d", i, resp.Cut[i], sr.Cut[i])
			}
		}
		for i := range sr.ComponentWeights {
			if resp.ComponentWeights[i] != sr.ComponentWeights[i] {
				t.Fatalf("componentWeights[%d] = %v, decoded %v", i, resp.ComponentWeights[i], sr.ComponentWeights[i])
			}
		}
	})
}

// FuzzDecodeBatchResult feeds arbitrary bytes to the PBR1 decoder, the
// binary /v1/batch response. It must never panic, and a frame it accepts
// holds at most one item per input byte.
func FuzzDecodeBatchResult(f *testing.F) {
	s := fuzzServer(f)
	h := s.Handler()
	p1, p2 := fuzzPath(32, 1), fuzzPath(48, 2)
	req, err := AppendBatchRequest(nil, 0, []SolveParams{
		{Solver: "bandwidth", K: 4 * p1.MaxNodeWeight()},
		{Solver: "", K: 1},
		{Solver: "bandwidth", K: 4 * p2.MaxNodeWeight(), Verify: true},
	}, []any{p1, p1, p2})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ { // solved items, then the same items from the cache
		rec := doBin(h, "/v1/batch", req, codec.ContentType)
		if rec.Code != http.StatusOK {
			f.Fatalf("seed batch = %d: %s", rec.Code, rec.Body)
		}
		b := rec.Body.Bytes()
		f.Add(b)
		f.Add(b[:len(b)-3])
		f.Add(append(append([]byte(nil), b...), 0xEE))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		out, err := DecodeBatchResult(b)
		if err != nil {
			return
		}
		if len(out.Items) > len(b) {
			t.Fatalf("%d items decoded from %d bytes", len(out.Items), len(b))
		}
	})
}
