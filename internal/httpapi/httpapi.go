// Package httpapi is the one HTTP/JSON front end of the serving system: the
// wire types, the query-string parser, the error envelope and its status
// mapping, the middleware stack (request IDs, per-route metrics, ?trace=1,
// slow-query log) and graceful serve-until-signal. cmd/spatialserver mounts
// it over one serve.Store, cmd/spatialcluster over the cluster coordinator;
// each adds only its own admin routes.
//
// Routes every backend serves:
//
//	GET  /v1/range?minx=&miny=&minz=&maxx=&maxy=&maxz=[&limit=]
//	GET  /v1/knn?x=&y=&z=[&k=]                        k nearest (1..1024, default 10)
//	GET  /v1/join?eps=[&algo=auto|grid|touch|...][&workers=][&limit=]
//	     epoch-pinned epsilon self-join; limit caps the pairs in the body
//	POST /v1/update  {"upserts":[{"id":..,"min":[..],"max":[..]}],"deletes":[..]}
//	GET  /v1/stats                                     backend stats
//	GET  /v1/healthz                                   liveness
//	GET  /metrics                                      Prometheus text exposition
//
// Every query route takes ?timeout= (a Go duration tightening the backend's
// deadline), ?plan=1 (the store's plan report) and ?trace=1 (the request's
// span tree in the reply's "trace" field). Coordinates and eps must be
// finite. Errors are always {"error":{"code","message"}}: 400 bad input, 404
// unknown route, 405 wrong method, 409 not bootstrapped, 413 oversized update
// body, 503 overloaded/unavailable/swap_aborted with Retry-After from the
// backend's drain estimate, 504 deadline expired before any result. A
// partial answer is 200 with "degraded":true plus per-shard or per-node
// detail. Every response carries X-Request-Id (the client's, or generated).
//
// Range and kNN replies are encoded without reflection into a pooled buffer
// (encode.go), byte-identical to encoding/json, and sent in one write with
// Content-Length, never chunked. A reply served from a clean entry of the
// store's epoch result cache reuses that entry's items encoding, so each
// cached result is formatted once per epoch rather than once per hit. The
// stored encoding costs about 154 B per cached result on top of the 56 B
// item: with -cache 1024 and ~40-result answers, ~6 MB per live epoch.
// ?trace=1 adds a parse span (query-string validation) and an encode span
// (attrs bytes and reused) to the store's spans.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/geom"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

const (
	// maxUpdateBody caps a /v1/update body. It sits well above the largest
	// batch clients send (a 200k-segment timestep is ~27 MiB of JSON).
	maxUpdateBody = 256 << 20
	// maxQueryTimeout bounds ?timeout=: a typo like 300m for 300ms would
	// otherwise pin an admission slot for five hours.
	maxQueryTimeout = time.Hour
	// readHeaderTimeout bounds how long a client may take to send headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes idle keep-alive connections. Load generators hold
	// connections idle between phases, so it is minutes, not seconds.
	idleTimeout = 5 * time.Minute
)

// Item is the wire shape of one spatial item: id plus box corners as
// [x, y, z] triples.
type Item struct {
	ID  int64      `json:"id"`
	Min [3]float64 `json:"min"`
	Max [3]float64 `json:"max"`
}

// Detail is the reply metadata query and join answers share. Every field is
// omitted when empty, so each backend emits only what it reports: the store
// its plan and shard errors, the cluster its fan-out and node errors.
type Detail struct {
	Plan        *serve.PlanInfo     `json:"plan,omitempty"`
	FanOut      int                 `json:"fan_out,omitempty"`
	Hedges      int                 `json:"hedges,omitempty"`
	Failovers   int                 `json:"failovers,omitempty"`
	Degraded    bool                `json:"degraded,omitempty"`
	ShardErrors []serve.ShardError  `json:"shard_errors,omitempty"`
	NodeErrors  []cluster.NodeError `json:"node_errors,omitempty"`
	Trace       *obs.SpanJSON       `json:"trace,omitempty"`
}

// QueryResponse is the wire shape of range and kNN answers.
type QueryResponse struct {
	Epoch uint64 `json:"epoch"`
	Count int    `json:"count"`
	Items []Item `json:"items"`
	Detail
}

// JoinResponse is the wire shape of a join answer: the total pair count and
// (up to limit) pairs as [a, b] id tuples with a < b.
type JoinResponse struct {
	Epoch     uint64  `json:"epoch"`
	Algorithm string  `json:"algorithm"`
	Eps       float64 `json:"eps"`
	// Items is how many items the join ran over; the cluster does not
	// report it.
	Items     int        `json:"items,omitempty"`
	Count     int        `json:"count"`
	Truncated bool       `json:"truncated"`
	Pairs     [][2]int64 `json:"pairs"`
	Detail
}

// UpdateRequest is the wire shape of an update batch.
type UpdateRequest struct {
	Upserts []Item  `json:"upserts"`
	Deletes []int64 `json:"deletes"`
}

// UpdateResponse reports the epoch the batch was published as.
type UpdateResponse struct {
	Epoch   uint64        `json:"epoch"`
	Applied int           `json:"applied"`
	Trace   *obs.SpanJSON `json:"trace,omitempty"`
}

// ErrorEnvelope is the error shape of every route.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the envelope's machine-readable code and human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// HandlerFunc is a route handler given the request's query string, parsed
// once by the middleware.
type HandlerFunc func(w http.ResponseWriter, r *http.Request, q url.Values)

// Server is the front end over one Backend. It is an http.Handler.
type Server struct {
	backend   Backend
	reg       *obs.Registry
	logger    *slog.Logger
	slowQuery time.Duration
	mux       *http.ServeMux
	ids       atomic.Uint64
	// maxBody is maxUpdateBody; a field so tests can hit the cap with a
	// small body.
	maxBody int64
}

// New mounts the shared routes over b. reg receives the per-route HTTP
// series and is served at /metrics; queries slower than slowQuery are logged
// to logger (0 disables the slow-query log).
func New(b Backend, reg *obs.Registry, logger *slog.Logger, slowQuery time.Duration) *Server {
	s := &Server{backend: b, reg: reg, logger: logger, slowQuery: slowQuery, mux: http.NewServeMux(), maxBody: maxUpdateBody}
	s.Handle("/v1/range", s.handleRange)
	s.Handle("/v1/knn", s.handleKNN)
	s.Handle("/v1/join", s.handleJoin)
	s.Handle("/v1/update", Post(s.handleUpdate))
	s.Handle("/v1/stats", func(w http.ResponseWriter, r *http.Request, q url.Values) { WriteJSON(w, b.Stats()) })
	s.Handle("/v1/healthz", func(w http.ResponseWriter, r *http.Request, q url.Values) { fmt.Fprintln(w, "ok") })
	s.mux.HandleFunc("/metrics", Metrics(reg))
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		Error(w, http.StatusNotFound, "not_found", "no route "+r.URL.Path)
	})
	return s
}

// ServeHTTP stamps every response with an X-Request-Id header, echoing the
// client's or generating a process-unique one, then routes the request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = "req-" + strconv.FormatUint(s.ids.Add(1), 10)
	}
	w.Header().Set("X-Request-Id", id)
	s.mux.ServeHTTP(w, r)
}

// statusRecorder captures the response status for the per-route counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Handle mounts h at route behind the middleware: the query string parsed
// once, a span tree attached to the context on ?trace=1, and the route's
// latency histogram and per-status request counters.
func (s *Server) Handle(route string, h HandlerFunc) {
	hist := s.reg.Histogram(obs.Name("spatial_http_request_seconds", "route", route))
	codes := &codeCounters{reg: s.reg, route: route}
	s.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q := r.URL.Query()
		if q.Get("trace") == "1" {
			r = r.WithContext(obs.WithTrace(r.Context(), obs.NewTrace(r.URL.Path)))
		}
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r, q)
		hist.Observe(time.Since(start))
		codes.get(sr.status).Inc()
	})
}

// codeCounters resolves one route's spatial_http_requests_total{code}
// counters: the registry (name rendering and its mutex) is consulted once
// per status code, after which a lookup is one atomic load.
type codeCounters struct {
	reg    *obs.Registry
	route  string
	byCode [500]atomic.Pointer[obs.Counter] // statuses 100..599
}

func (cc *codeCounters) get(status int) *obs.Counter {
	i := status - 100
	if i >= 0 && i < len(cc.byCode) {
		if c := cc.byCode[i].Load(); c != nil {
			return c
		}
	}
	c := cc.reg.Counter(obs.Name("spatial_http_requests_total", "route", cc.route, "code", strconv.Itoa(status)))
	if i >= 0 && i < len(cc.byCode) {
		cc.byCode[i].Store(c)
	}
	return c
}

// Post restricts h to POST requests.
func Post(h HandlerFunc) HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request, q url.Values) {
		if r.Method != http.MethodPost {
			Error(w, http.StatusMethodNotAllowed, "method_not_allowed", r.URL.Path+" requires POST")
			return
		}
		h(w, r, q)
	}
}

// Metrics serves reg in the Prometheus text exposition format.
func Metrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// WriteJSON answers v as JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		Error(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// Error answers status with the error envelope.
func Error(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// fail is Error with Retry-After on every 503: the backend's estimate of when
// its admission queue drains, not a constant.
func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(s.backend.RetryAfterHint()/time.Second), 10))
	}
	Error(w, status, code, msg)
}

// writeError maps a failed read onto the envelope: shed or no node available
// is 503, an expired deadline 504, a client that went away 503, a cluster
// not yet bootstrapped 409, anything else 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, serve.ErrOverload):
		status, code = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, cluster.ErrUnavailable):
		status, code = http.StatusServiceUnavailable, "unavailable"
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		status, code = http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, cluster.ErrNotBootstrapped):
		status, code = http.StatusConflict, "conflict"
	}
	s.fail(w, status, code, err.Error())
}

// finite parses s as a finite float: NaN and ±Inf parse but are no
// coordinate (NaN compares false to everything and corrupts box tests).
func finite(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

func vec(q url.Values, xk, yk, zk string) (geom.Vec3, bool) {
	x, okx := finite(q.Get(xk))
	y, oky := finite(q.Get(yk))
	z, okz := finite(q.Get(zk))
	return geom.V(x, y, z), okx && oky && okz
}

func intParam(q url.Values, key string, def int) int {
	n, err := strconv.Atoi(q.Get(key))
	if err != nil {
		return def
	}
	return n
}

// read runs one backend read under the request's context tightened by
// ?timeout=, feeds the slow-query log, and answers failures itself: ok is
// false when the response is already written. parse is the handler's open
// parse span; read ends it once ?timeout= is validated.
func (s *Server) read(w http.ResponseWriter, r *http.Request, q url.Values, parse *obs.Span, op string, call func(context.Context) Reply) (rep Reply, ok bool) {
	ctx := r.Context()
	if t := q.Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 || d > maxQueryTimeout {
			Error(w, http.StatusBadRequest, "bad_request", "timeout must be a positive duration up to 1h (e.g. 50ms)")
			return rep, false
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	parse.End()
	start := time.Now()
	rep = call(ctx)
	s.logSlow(w, op, time.Since(start), rep)
	if rep.Err != nil {
		s.writeError(w, rep.Err)
		return rep, false
	}
	return rep, true
}

// logSlow emits the slow-query record: the request id, the executed plan,
// the shard errors and the instrument counter breakdown — enough to explain
// where the time went without re-running the query under ?trace=1.
func (s *Server) logSlow(w http.ResponseWriter, op string, elapsed time.Duration, rep Reply) {
	if s.slowQuery <= 0 || elapsed < s.slowQuery {
		return
	}
	attrs := []any{
		"request_id", w.Header().Get("X-Request-Id"),
		"op", op,
		"elapsed", elapsed,
		"epoch", rep.Epoch,
		"family", rep.Plan.Family,
		"cache_hit", rep.Plan.CacheHit,
		"fan_out", rep.Plan.FanOut,
		"counters", rep.Counters,
	}
	if rep.Plan.Algorithm != "" {
		attrs = append(attrs, "algorithm", rep.Plan.Algorithm)
	}
	if rep.Err != nil {
		attrs = append(attrs, "error", rep.Err.Error())
	}
	if rep.Degraded {
		attrs = append(attrs, "degraded", true, "shard_errors", rep.ShardErrors)
	}
	s.logger.Warn("slow query", attrs...)
}

// detail renders a reply's metadata. plan=1 adds the plan report when the
// backend produced one; the trace is the request's, present on ?trace=1.
func detail(r *http.Request, q url.Values, rep Reply) Detail {
	d := Detail{
		FanOut: rep.FanOut, Hedges: rep.Hedges, Failovers: rep.Failovers,
		Degraded: rep.Degraded, ShardErrors: rep.ShardErrors, NodeErrors: rep.NodeErrors,
		Trace: obs.FromContext(r.Context()).Finish(),
	}
	if q.Get("plan") == "1" && rep.Plan != (serve.PlanInfo{}) {
		d.Plan = &rep.Plan
	}
	return d
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, q url.Values) {
	ps := obs.SpanFromContext(r.Context()).Child("parse")
	lo, okLo := vec(q, "minx", "miny", "minz")
	hi, okHi := vec(q, "maxx", "maxy", "maxz")
	if !okLo || !okHi {
		Error(w, http.StatusBadRequest, "bad_request", "range needs finite float params minx..maxz")
		return
	}
	limit := intParam(q, "limit", 0)
	rep, ok := s.read(w, r, q, ps, "range", func(ctx context.Context) Reply {
		return s.backend.Range(ctx, geom.NewAABB(lo, hi))
	})
	if !ok {
		return
	}
	items := rep.Items
	if limit > 0 && len(items) > limit {
		// The cached encoding stands for the whole result only.
		items, rep.Encoding = items[:limit], nil
	}
	writeItems(w, r, q, rep, items)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request, q url.Values) {
	ps := obs.SpanFromContext(r.Context()).Child("parse")
	p, okP := vec(q, "x", "y", "z")
	if !okP {
		Error(w, http.StatusBadRequest, "bad_request", "knn needs finite float params x, y, z")
		return
	}
	// The cap bounds per-request work: every overlapping shard gathers up to
	// k candidates before the global merge.
	k := intParam(q, "k", 10)
	if k <= 0 || k > 1024 {
		Error(w, http.StatusBadRequest, "bad_request", "k out of range (1..1024)")
		return
	}
	rep, ok := s.read(w, r, q, ps, "knn", func(ctx context.Context) Reply { return s.backend.KNN(ctx, p, k) })
	if ok {
		writeItems(w, r, q, rep, rep.Items)
	}
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request, q url.Values) {
	ps := obs.SpanFromContext(r.Context()).Child("parse")
	eps, okEps := finite(q.Get("eps"))
	if !okEps || eps < 0 {
		Error(w, http.StatusBadRequest, "bad_request", "join needs a finite non-negative float param eps")
		return
	}
	jr := serve.JoinRequest{Eps: eps, Workers: intParam(q, "workers", 0)}
	if name := q.Get("algo"); name != "" && name != "auto" {
		algo, err := join.ParseAlgorithm(name)
		if err != nil {
			Error(w, http.StatusBadRequest, "bad_request", err.Error())
			return
		}
		jr.Algo, jr.Force = algo, true
	}
	// The cap bounds the response body, not the join: the full pair set is
	// computed (and counted) either way.
	limit := intParam(q, "limit", 1000)
	if limit <= 0 || limit > 100000 {
		Error(w, http.StatusBadRequest, "bad_request", "limit out of range (1..100000)")
		return
	}
	rep, ok := s.read(w, r, q, ps, "join", func(ctx context.Context) Reply { return s.backend.Join(ctx, jr) })
	if !ok {
		return
	}
	pairs := rep.Pairs[:min(len(rep.Pairs), limit)]
	resp := JoinResponse{
		Epoch: rep.Epoch, Algorithm: rep.JoinAlgo.String(), Eps: eps, Items: rep.JoinItems,
		Count: len(rep.Pairs), Truncated: len(rep.Pairs) > limit, Pairs: make([][2]int64, len(pairs)),
		Detail: detail(r, q, rep),
	}
	for i, p := range pairs {
		resp.Pairs[i] = [2]int64{p.A, p.B}
	}
	WriteJSON(w, resp)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, q url.Values) {
	var req UpdateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			Error(w, http.StatusRequestEntityTooLarge, "too_large", fmt.Sprintf("update body exceeds %d bytes", tooBig.Limit))
			return
		}
		Error(w, http.StatusBadRequest, "bad_request", "bad update body: "+err.Error())
		return
	}
	batch := make([]serve.Update, 0, len(req.Upserts)+len(req.Deletes))
	for _, up := range req.Upserts {
		box := geom.NewAABB(geom.V(up.Min[0], up.Min[1], up.Min[2]), geom.V(up.Max[0], up.Max[1], up.Max[2]))
		batch = append(batch, serve.Update{ID: up.ID, Box: box})
	}
	for _, id := range req.Deletes {
		batch = append(batch, serve.Update{ID: id, Delete: true})
	}
	epoch, err := s.backend.Apply(r.Context(), batch)
	switch {
	case errors.Is(err, cluster.ErrNotBootstrapped):
		s.writeError(w, err)
	case err != nil:
		// A failed stage or publish leaves readers on the previous epoch, so
		// the write is safe to retry.
		s.fail(w, http.StatusServiceUnavailable, "swap_aborted", err.Error())
	default:
		WriteJSON(w, UpdateResponse{Epoch: epoch, Applied: len(batch), Trace: obs.FromContext(r.Context()).Finish()})
	}
}

// ServeUntilSignal serves h on ln until the listener fails or SIGINT/SIGTERM
// arrives. On a signal it stops accepting, gives in-flight requests the drain
// budget (then cuts them), and calls closeBackend — for a durable store that
// takes the final snapshot that makes the shutdown recoverable without WAL
// replay — before returning nil.
func ServeUntilSignal(ln net.Listener, h http.Handler, drain time.Duration, logger *slog.Logger, closeBackend func()) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	logger.Info("shutdown signal received, draining", "budget", drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain budget exhausted, closing remaining connections", "err", err)
		srv.Close()
	}
	closeBackend()
	logger.Info("graceful shutdown complete")
	return nil
}
