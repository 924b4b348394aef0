package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/jobs"
)

// batchItemFrames splits a PBR1 body into its items' raw bodies, so tests can
// compare them byte for byte with /v1/solve answers.
func batchItemFrames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	rd := wireReader{b: b}
	rd.magic(batchRespMagic)
	for i := 0; i < 4; i++ { // requests, solved, failed, cacheHits
		rd.uvarint()
	}
	rd.f64() // wallMs
	n := rd.uvarint()
	var items [][]byte
	for i := uint64(0); i < n && rd.err == nil; i++ {
		if tag := rd.u8(); tag == wireItemError {
			t.Fatalf("batch item %d is an error", i)
		}
		ln := rd.uvarint()
		if rd.err != nil || ln > uint64(len(rd.b)) {
			break
		}
		items = append(items, rd.b[:ln])
		rd.b = rd.b[ln:]
	}
	if rd.err != nil || uint64(len(items)) != n || len(rd.b) != 0 {
		t.Fatalf("malformed PBR1 body (%v)", rd.err)
	}
	return items
}

// TestCrossRouteSingleSolve asks for one solve on every route — binary
// solve, JSON solve, JSON batch item, binary batch item, job — and expects
// exactly one engine solve behind them, with every JSON rendering
// byte-identical and the binary batch item byte-identical to the binary
// solve. Every route after the first must be answered from the cache,
// whichever route came first.
func TestCrossRouteSingleSolve(t *testing.T) {
	orders := [][]string{
		{"bin-solve", "json-solve", "json-batch", "bin-batch", "job"},
		{"bin-solve", "json-batch", "job", "json-solve", "bin-batch"},
		{"job", "bin-batch", "json-solve", "bin-solve", "json-batch"},
	}
	for oi, order := range orders {
		t.Run(strings.Join(order, ","), func(t *testing.T) {
			var solves atomic.Int64
			s := newTestServer(t, Config{Observer: solveCounter(&solves)})
			h := s.Handler()
			ts := httptest.NewServer(h)
			defer ts.Close()

			g := testPath(t, 300, uint64(21+oi))
			params := SolveParams{Solver: "bandwidth", K: 5 * g.MaxNodeWeight(), Verify: true}
			jreq := solveRequest{Solver: params.Solver, K: params.K, Verify: true, Graph: graphJSONOf(t, g)}
			bbody, err := AppendBatchRequest(nil, 0, []SolveParams{params}, []any{g})
			if err != nil {
				t.Fatal(err)
			}

			// Each route returns its rendering of the answer, whether that
			// rendering is binary, and whether the answer came from the cache.
			routes := map[string]func() (body []byte, bin, cached bool){
				"bin-solve": func() ([]byte, bool, bool) {
					rec := doBin(h, "/v1/solve", mustSolveFrame(t, params, g), codec.ContentType)
					if rec.Code != http.StatusOK {
						t.Fatalf("binary solve = %d: %s", rec.Code, rec.Body)
					}
					return rec.Body.Bytes(), true, rec.Header().Get("X-Cache") == "HIT"
				},
				"json-solve": func() ([]byte, bool, bool) {
					rec := doJSON(t, h, "POST", "/v1/solve", jreq)
					if rec.Code != http.StatusOK {
						t.Fatalf("JSON solve = %d: %s", rec.Code, rec.Body)
					}
					return bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")), false, rec.Header().Get("X-Cache") == "HIT"
				},
				"json-batch": func() ([]byte, bool, bool) {
					rec := doJSON(t, h, "POST", "/v1/batch", batchRequest{Requests: []solveRequest{jreq}})
					var resp batchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Items) != 1 || resp.Items[0].Error != "" {
						t.Fatalf("JSON batch = %d %s (%v)", rec.Code, rec.Body, err)
					}
					return resp.Items[0].Result, false, resp.Items[0].Cached
				},
				"bin-batch": func() ([]byte, bool, bool) {
					rec := doBin(h, "/v1/batch", bbody, codec.ContentType)
					if rec.Code != http.StatusOK {
						t.Fatalf("binary batch = %d: %s", rec.Code, rec.Body)
					}
					out, err := DecodeBatchResult(rec.Body.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					return batchItemFrames(t, rec.Body.Bytes())[0], true, out.Items[0].Cached
				},
				"job": func() ([]byte, bool, bool) {
					sub := submitJob(t, ts, jobSubmitRequest{solveRequest: jreq})
					st := waitJobState(t, ts, sub.ID, jobs.StateSucceeded)
					return st.Result, false, st.Cached
				},
			}

			var jsonBody, binBody []byte
			for i, name := range order {
				body, bin, cached := routes[name]()
				if cached != (i > 0) {
					t.Errorf("%s (step %d): cached = %v, want %v", name, i, cached, i > 0)
				}
				ref := &jsonBody
				if bin {
					ref = &binBody
				}
				if *ref == nil {
					*ref = body
				} else if !bytes.Equal(*ref, body) {
					t.Errorf("%s rendering differs from the earlier one:\n%s\nvs\n%s", name, body, *ref)
				}
			}
			if got := solves.Load(); got != 1 {
				t.Errorf("%d engine solves across the five routes, want exactly 1", got)
			}
		})
	}
}

// TestBatchItemsShareOneFlight: identical items of one batch, resolved
// concurrently, join one single-flight solve and get the same answer.
func TestBatchItemsShareOneFlight(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 4})
	started, release := armGate(t)
	defer release()
	item := solveRequest{Solver: "test-gate", K: 42, Graph: pathGraphJSON(t, 50, 8)}
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doJSONRaw(s.Handler(), "POST", "/v1/batch", batchRequest{Requests: []solveRequest{item, item, item, item}})
	}()
	<-started // the flight leader is inside the solver
	// Give the other items time to join the leader's flight; an item that
	// arrives after the release is answered by the cache instead, so the
	// solve count stays 1 regardless of scheduling.
	time.Sleep(100 * time.Millisecond)
	release()
	rec := <-done

	if extra := len(started); extra != 0 {
		t.Fatalf("solver ran %d times for 4 identical batch items, want 1", 1+extra)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch = %d %s (%v)", rec.Code, rec.Body, err)
	}
	if resp.Stats.Solved != 4 || resp.Stats.Failed != 0 {
		t.Fatalf("batch stats = %+v, want 4 solved", resp.Stats)
	}
	for i, it := range resp.Items {
		if !bytes.Equal(it.Result, resp.Items[0].Result) {
			t.Errorf("item %d differs from item 0", i)
		}
	}
	if _, shared := s.flight.Stats(); shared == 0 {
		t.Error("no batch item joined the leader's flight")
	}
}
