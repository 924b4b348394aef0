package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// The solve pipeline. /v1/solve and every /v1/batch item resolve through
// one function, resolve: cache → single-flight → forward-or-solve → certify
// → fill. Its one artifact is the canonical PRS1 frame, whatever format the
// requester negotiated — JSON callers render from the frame (the encoding is
// lossless: floats travel as their exact bits) — so cache, flight and job
// dedup share one format-free key, and N identical concurrent misses perform
// exactly one engine solve no matter how the callers mix JSON and binary,
// solve and batch.
//
// With a cluster configured, every miss on a graph this node does not own is
// forwarded to the owning peer as a PSV1 binary frame; the owner answers with
// the PRS1 frame it would serve locally (so binary clients get byte-identical
// results whether or not their request crossed a node boundary). Forwarded
// internal requests land on the owner with the same key, which is what makes
// the dedup cluster-wide: a thundering herd on one hot graph, spread across
// every node, collapses to a single solve on the owner. Forwarding is
// best-effort: any failure falls back to a local solve, so a dead owner costs
// dedup and cache locality, never availability.

// flightBody is a resolved solve miss as shared through the single-flight
// group: the canonical PRS1 frame, where it came from (for the X-Cluster
// response header), and — for traced requests and remote-parented internal
// solves — the request's own span tree plus its trace ID.
type flightBody struct {
	body    []byte
	via     string        // forwarding peer URL; empty for a local solve
	tree    *obs.SpanNode // non-nil for traced requests and remote-parented solves
	traceID string        // set alongside tree; rendered as the JSON traceId field
}

// httpError carries an HTTP status through the single-flight group, so shed
// decisions (429/503) made by a flight leader reach every joined waiter.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// clusterMetrics attributes cache lookups to the requester tier: "local"
// for external clients of this node, "peer" for forwarded internal requests
// from other cluster nodes (the owner serving its shard).
type clusterMetrics struct {
	localHits, localMisses atomic.Uint64
	peerHits, peerMisses   atomic.Uint64
}

func (m *clusterMetrics) observeLookup(internal, hit bool) {
	switch {
	case internal && hit:
		m.peerHits.Add(1)
	case internal:
		m.peerMisses.Add(1)
	case hit:
		m.localHits.Add(1)
	default:
		m.localMisses.Add(1)
	}
}

// acquireSlotCtx admits one unit of solve work, queueing under QueueTimeout
// bounded also by ctx. Shed outcomes come back as *httpError so they can
// travel through the single-flight group and be written by any waiter.
func (s *Server) acquireSlotCtx(ctx context.Context) (release func(), err error) {
	if release, ok := s.limiter.TryAcquire(); ok {
		return release, nil
	}
	qctx, qcancel := context.WithTimeout(ctx, s.cfg.QueueTimeout)
	release, aerr := s.limiter.Acquire(qctx)
	qcancel()
	if aerr != nil {
		if errors.Is(aerr, ErrQueueFull) {
			return nil, &httpError{status: http.StatusTooManyRequests, msg: "admission queue full"}
		}
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "timed out waiting for a solve slot"}
	}
	return release, nil
}

// writeSolveError maps a resolve error to its response: explicit HTTP
// statuses pass through, engine/solve errors map via solveStatus.
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		s.writeError(w, he.status, he.msg)
		return
	}
	s.writeError(w, solveStatus(err), err.Error())
}

// solveTimeoutOf resolves the effective engine deadline for a requested
// timeoutMs: the server default when unset, clamped to the server maximum.
func (s *Server) solveTimeoutOf(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// resolved is one answered solve: the canonical PRS1 frame plus how it was
// obtained, for the response headers.
type resolved struct {
	flightBody
	cached bool // answered from the result cache
	shared bool // answered by joining another caller's flight
}

// resolve answers one parsed solve with its canonical PRS1 frame. Rendering
// the frame into the negotiated format is the caller's job. Requests whose
// result may not be shared skip the cache and the flight.
func (s *Server) resolve(ctx context.Context, p *parsedSolve, internal bool) (resolved, error) {
	if !p.shared() {
		fb, err := s.resolveMiss(ctx, p, internal)
		return resolved{flightBody: fb}, err
	}
	key := p.key()
	if frame, ok := s.cache.Get(key); ok {
		s.clusterm.observeLookup(internal, true)
		return resolved{flightBody: flightBody{body: frame}, cached: true}, nil
	}
	s.clusterm.observeLookup(internal, false)
	fb, shared, err := s.flight.Do(key, func() (flightBody, error) {
		// The solve is detached from this request's cancellation: every
		// waiter that joined depends on it, and the engine deadline bounds it
		// regardless. Context values (request ID, remote trace context)
		// survive. The leader fills the cache once for every waiter.
		fb, err := s.resolveMiss(context.WithoutCancel(ctx), p, internal)
		if err == nil {
			s.cache.Put(key, fb.body)
		}
		return fb, err
	})
	return resolved{flightBody: fb, shared: shared}, err
}

// resolveMiss computes the canonical PRS1 frame for a cache miss: forwarded
// to the owning peer when a cluster is configured and this node does not own
// the graph, a local engine solve otherwise (and as the fallback for any
// failed forward). Usually runs as a single-flight leader; internal marks
// requests that already crossed a node boundary and must not be forwarded
// again.
//
// Every miss runs under a trace: the phase spans feed the per-phase metrics
// and the flight recorder whether or not the client asked for the tree back.
// Internal requests adopt the caller's propagated trace identity (same trace
// ID cluster-wide, this node's root parented under the caller's forward
// span); their tree travels back in the response trailer so the caller can
// graft it. The "solve " root-name prefix only matters when the tree is
// rendered into a response; skipping the concat keeps the untraced hot path
// one allocation cheaper.
func (s *Server) resolveMiss(ctx context.Context, p *parsedSolve, internal bool) (flightBody, error) {
	name := p.req.Solver
	if p.req.Trace {
		name = "solve " + p.req.Solver
	}
	tr := obs.New(name)
	tr.RequestID = obs.RequestIDFrom(ctx)
	rem, hasRemote := obs.RemoteFromContext(ctx)
	if internal && hasRemote {
		tr.ID = rem.Trace
		tr.Parent = rem.Span
	} else {
		hasRemote = false
	}
	tctx := obs.NewContext(ctx, tr)

	var fb flightBody
	var err error
	forwarded := false
	if s.cluster != nil && !internal && !p.req.NoCache {
		if peer, local := s.cluster.Route(p.fp); !local {
			fb, forwarded = s.forwardSolve(tctx, tr, p, peer)
		}
	}
	if !forwarded {
		fb, err = s.solveLocal(tctx, p, internal)
	}
	tr.Finish()
	if err == nil && (p.req.Trace || hasRemote) {
		fb.tree = tr.Tree()
		fb.traceID = tr.ID.String()
	}
	s.offerTrace(flight.Info{
		Trace:     tr,
		Kind:      "solve",
		Solver:    p.req.Solver,
		Status:    errStatus(err),
		Err:       errMessage(err),
		Forwarded: forwarded,
		Remote:    hasRemote,
		Peer:      fb.via,
	})
	return fb, err
}

// errStatus maps a resolve error to the HTTP status it will be written as.
func errStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return solveStatus(err)
}

func errMessage(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// forwardSolve encodes the parsed request as a PSV1 frame and asks the
// owning peer to solve it, returning the owner's PRS1 frame. The hop runs
// under a cluster-forward span whose identity travels in the trace header;
// when the owner answers with its span tree in the response trailer, that
// tree is grafted under the span — one request, one tree, cluster-wide.
// Reports ok=false on any failure, leaving the caller to solve locally; the
// cluster transport has already recorded the outcome and marked the peer
// dead when the failure was transport-level.
func (s *Server) forwardSolve(ctx context.Context, tr *obs.Trace, p *parsedSolve, peer string) (flightBody, bool) {
	// Trace and noCache are local concerns and do not cross the hop; the
	// owner always answers the cacheable untraced binary form. The frame is
	// sized up front: the graph dominates it, and growing it by appends
	// copies the graph several times over.
	frame, err := AppendSolveRequest(make([]byte, 0, 40+len(p.req.Solver)+codec.EncodedSize(p.g)), SolveParams{
		Solver:        p.req.Solver,
		K:             p.req.K,
		MaxComponents: p.req.MaxComponents,
		TimeoutMs:     p.req.TimeoutMs,
		Verify:        p.req.Verify,
	}, p.g)
	if err != nil {
		return flightBody{}, false
	}
	// The forward deadline covers the owner's worst case: its admission
	// queue wait plus the solve deadline we asked for, with margin.
	fwdCtx, cancel := context.WithTimeout(ctx, s.solveTimeoutOf(p.req.TimeoutMs)+s.cfg.QueueTimeout+2*time.Second)
	defer cancel()
	sp := obs.Phase(ctx, "cluster-forward")
	sp.SetAttr("peer", peer)
	hdr := obs.FormatTraceHeader(obs.Remote{Trace: tr.ID, Span: sp.ID, Flags: obs.FlagSampled})
	body, _, spans, err := s.cluster.ForwardSolve(fwdCtx, peer, frame, obs.RequestIDFrom(ctx), hdr)
	defer sp.End()
	if err != nil {
		s.cfg.Logger.Warn("cluster forward failed, solving locally",
			"peer", peer, "solver", p.req.Solver, "err", err)
		return flightBody{}, false
	}
	// Validate the frame before sharing it: waiters of every format render
	// from these bytes, and a corrupt answer must degrade to a local solve,
	// not surface as a 500.
	if _, rest, err := DecodeSolveResult(body); err != nil || len(rest) != 0 {
		s.cfg.Logger.Warn("cluster forward returned a bad frame, solving locally",
			"peer", peer, "err", err)
		return flightBody{}, false
	}
	if len(spans) > 0 {
		var node obs.SpanNode
		if jerr := json.Unmarshal(spans, &node); jerr == nil && node.Name != "" {
			if node.Attrs == nil {
				node.Attrs = make(map[string]any, 2)
			}
			node.Attrs["remote"] = true
			node.Attrs["peer"] = peer
			sp.Graft(&node)
		}
	}
	return flightBody{body: body, via: peer}, true
}

// solveLocal runs the engine for a miss on this node under the trace already
// in ctx, holding one admission slot for the solve. internal requests
// (forwarded from a peer) nest the solve under a remote-solve span so traces
// show which solves served the cluster rather than this node's own clients.
func (s *Server) solveLocal(ctx context.Context, p *parsedSolve, internal bool) (flightBody, error) {
	release, err := s.acquireSlotCtx(ctx)
	if err != nil {
		return flightBody{}, err
	}
	defer release()
	if internal {
		var sp *obs.Span
		ctx, sp = obs.StartSpan(ctx, "remote-solve")
		defer sp.End()
	}
	frame, err := s.solveFrame(ctx, p, s.solveTimeoutOf(p.req.TimeoutMs))
	return flightBody{body: frame}, err
}

// solveFrame is the local-solve helper shared by the synchronous routes and
// jobs: an engine solve on an already admitted request, certification when
// asked for, and the canonical PRS1 frame. timeout 0 leaves the deadline to
// ctx.
func (s *Server) solveFrame(ctx context.Context, p *parsedSolve, timeout time.Duration) ([]byte, error) {
	ser := s.solvem.enter(p.req.Solver)
	defer s.solvem.exit(ser)
	ereq := s.engineRequest(p, timeout)
	res, err := engine.Solve(ctx, ereq)
	if err != nil {
		return nil, err
	}
	var cert *verifyInfo
	if p.req.Verify {
		cert = s.certifyResult(ereq, res)
	}
	return appendSolveResult(nil, p.fp, res, cert), nil
}

// renderJSONResult renders the JSON solve response from the canonical PRS1
// frame. It is the only JSON rendering of a solve: /v1/solve, batch items
// and job results all go through it, whether the frame came from a local
// solve, a forward, a flight or the cache. The frame carries every float as
// its exact bits, so the rendering is lossless.
func renderJSONResult(frame []byte, trace *obs.SpanNode, traceID string) ([]byte, error) {
	sr, rest, err := DecodeSolveResult(frame)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errBadFrame
	}
	var body solveResponse
	body.Solver = sr.Solver
	body.K = sr.K
	body.Cut = sr.Cut
	if body.Cut == nil {
		body.Cut = []int{}
	}
	body.CutWeight = sr.CutWeight
	body.Bottleneck = sr.Bottleneck
	body.ComponentWeights = sr.ComponentWeights
	body.NumComponents = len(sr.ComponentWeights)
	body.Fingerprint = fmt.Sprintf("%016x", sr.Fingerprint)
	body.Verify = sr.Verify
	body.Trace = trace
	body.TraceID = traceID
	body.Stats.DurationMs = sr.DurationMs
	body.Stats.Iterations = sr.Iterations
	return json.Marshal(&body)
}

// clusterEnvelope is the cluster summary inside the /v1/solvers envelope.
type clusterEnvelope struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	Size    int    `json:"size,omitempty"`
	Alive   int    `json:"alive,omitempty"`
}

// clusterResponse is the body of GET /v1/cluster.
type clusterResponse struct {
	Enabled      bool                 `json:"enabled"`
	Self         string               `json:"self,omitempty"`
	VirtualNodes int                  `json:"virtualNodes,omitempty"`
	Peers        []cluster.PeerStatus `json:"peers,omitempty"`
	Alive        int                  `json:"alive,omitempty"`
	Forwards     cluster.ForwardStats `json:"forwards"`
	Singleflight singleflightInfo     `json:"singleflight"`
}

type singleflightInfo struct {
	Leads  uint64 `json:"leads"`
	Shared uint64 `json:"shared"`
}

// handleCluster is GET /v1/cluster: this node's membership view, forward
// counters, and single-flight stats. Answers on every node — clustered or
// not — so operators can probe any address the same way.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var resp clusterResponse
	leads, shared := s.flight.Stats()
	resp.Singleflight = singleflightInfo{Leads: leads, Shared: shared}
	if s.cluster != nil {
		st := s.cluster.Status()
		resp.Enabled = true
		resp.Self = st.Self
		resp.VirtualNodes = st.VirtualNodes
		resp.Peers = st.Peers
		resp.Alive = st.Alive
		resp.Forwards = st.Forwards
	}
	body, _ := json.Marshal(&resp)
	writeJSON(w, http.StatusOK, body)
}

// writeClusterMetrics renders the cache-tier, single-flight, and cluster
// series. The first two exist on every node; the cluster families only when
// clustering is configured.
func (s *Server) writeClusterMetrics(w io.Writer) {
	m := &s.clusterm
	family(w, "partitiond_cache_requests_total", "counter", "Result cache lookups by requester tier (local clients vs forwarded peer requests) and outcome.")
	fmt.Fprintf(w, "partitiond_cache_requests_total{tier=\"local\",result=\"hit\"} %d\n", m.localHits.Load())
	fmt.Fprintf(w, "partitiond_cache_requests_total{tier=\"local\",result=\"miss\"} %d\n", m.localMisses.Load())
	fmt.Fprintf(w, "partitiond_cache_requests_total{tier=\"peer\",result=\"hit\"} %d\n", m.peerHits.Load())
	fmt.Fprintf(w, "partitiond_cache_requests_total{tier=\"peer\",result=\"miss\"} %d\n", m.peerMisses.Load())

	leads, shared := s.flight.Stats()
	family(w, "partitiond_singleflight_total", "counter", "Solve-miss single-flight outcomes: led executions vs results shared from a concurrent identical miss.")
	fmt.Fprintf(w, "partitiond_singleflight_total{result=\"lead\"} %d\n", leads)
	fmt.Fprintf(w, "partitiond_singleflight_total{result=\"shared\"} %d\n", shared)

	if s.cluster == nil {
		return
	}
	st := s.cluster.Status()
	family(w, "partitiond_cluster_forwards_total", "counter", "Solves forwarded to owning peers by outcome (hit/miss = owner's cache answer; error = failed forward, solved locally).")
	fmt.Fprintf(w, "partitiond_cluster_forwards_total{outcome=\"hit\"} %d\n", st.Forwards.Hit)
	fmt.Fprintf(w, "partitiond_cluster_forwards_total{outcome=\"miss\"} %d\n", st.Forwards.Miss)
	fmt.Fprintf(w, "partitiond_cluster_forwards_total{outcome=\"error\"} %d\n", st.Forwards.Errors)
	family(w, "partitiond_cluster_peers", "gauge", "Cluster peers by health state, from this node's view (self counts as alive).")
	fmt.Fprintf(w, "partitiond_cluster_peers{state=\"alive\"} %d\n", st.Alive)
	fmt.Fprintf(w, "partitiond_cluster_peers{state=\"dead\"} %d\n", len(st.Peers)-st.Alive)
}
