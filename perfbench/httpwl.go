package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// analysis-http: analysts and visualisation reading one frozen timestep
// through spatialserver. The HTTP layer does most of the work per request,
// and Zipf-skewed repeats over a pool several times the cache size make the
// epoch result cache matter. There are no writes.

type httpSizes struct {
	elements, pool, cache int
	warmup                time.Duration
	ladder                []float64
	probeEvery            int
}

func analysisSizes(tiny bool) httpSizes {
	if tiny {
		return httpSizes{elements: 3000, pool: 256, cache: 32, warmup: 100 * time.Millisecond, ladder: []float64{300}, probeEvery: 50}
	}
	return httpSizes{elements: 200000, pool: 8192, cache: 1024, warmup: time.Second,
		ladder: []float64{750, 1000, 1500, 2000, 3000}, probeEvery: 50}
}

const (
	// httpWorkers is the rate ladder's goroutine and connection count: one
	// per processor of the reference machine (2), never more.
	httpWorkers = 2
	// httpUsers is the closed loop's: one analyst. With two, a request's
	// latency depended on whether the other user's request shared the
	// server, and the medians spread wider between runs.
	httpUsers = 1
	// httpTraceEvery: a traced run sends ?trace=1&plan=1 on one request in
	// this many, and times one other untraced for the tracing overhead.
	httpTraceEvery = 16
)

// server is one spatialserver child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   func()
}

// addrWatcher scans the server's log for the listen address.
type addrWatcher struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if !strings.Contains(line, "msg=serving") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if a, ok := strings.CutPrefix(f, "addr="); ok {
				w.found <- a
				w.buf = nil
				return len(p), nil
			}
		}
	}
	return len(p), nil
}

func startServer(ctx context.Context, bin string, shards, cache int) (*server, error) {
	if bin == "" {
		return nil, errors.New("--server-bin is required")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-elements", "0",
		"-shards", strconv.Itoa(shards), "-cache", strconv.Itoa(cache))
	w := &addrWatcher{buf: []byte{}, found: make(chan string, 1)}
	cmd.Stdout = w
	cmd.Stderr = w
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd}
	s.done = addCleanup(func() { _ = cmd.Process.Kill(); _ = cmd.Wait() })
	select {
	case a := <-w.found:
		s.base = "http://" + a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("spatialserver did not report its address")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: httpWorkers, MaxConnsPerHost: httpWorkers, DisableCompression: true,
		},
	}
	return s, nil
}

// stop shuts the server down gracefully and waits until it has exited.
func (s *server) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	s.done()
}

type wireItem struct {
	ID  int64      `json:"id"`
	Min [3]float64 `json:"min"`
	Max [3]float64 `json:"max"`
}

type wireReply struct {
	Epoch    uint64          `json:"epoch"`
	Count    int             `json:"count"`
	Items    []wireItem      `json:"items"`
	Plan     *serve.PlanInfo `json:"plan"`
	Degraded bool            `json:"degraded"`
	Trace    *obs.SpanJSON   `json:"trace"`
}

// answer is the reply to q reduced for the check.
func (wr *wireReply) answer(q query) answer {
	items := make([]index.Item, len(wr.Items))
	for i, w := range wr.Items {
		items[i] = index.Item{ID: w.ID, Box: geom.NewAABB(geom.V(w.Min[0], w.Min[1], w.Min[2]), geom.V(w.Max[0], w.Max[1], w.Max[2]))}
	}
	return answerTo(q, items)
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func queryURL(base string, q query, probe, traced bool) string {
	var u string
	if q.knn {
		x := q.point.X
		if probe {
			x = math.NaN()
		}
		u = fmt.Sprintf("%s/v1/knn?x=%s&y=%s&z=%s&k=%d", base, fmtF(x), fmtF(q.point.Y), fmtF(q.point.Z), knnK)
	} else {
		minx := q.box.Min.X
		if probe {
			minx = math.NaN()
		}
		u = fmt.Sprintf("%s/v1/range?minx=%s&miny=%s&minz=%s&maxx=%s&maxy=%s&maxz=%s", base,
			fmtF(minx), fmtF(q.box.Min.Y), fmtF(q.box.Min.Z), fmtF(q.box.Max.X), fmtF(q.box.Max.Y), fmtF(q.box.Max.Z))
	}
	if traced {
		u += "&trace=1&plan=1"
	}
	return u
}

// get performs one request and returns the status, the body and when the
// whole body had arrived; decoding it is the benchmark's own work.
func (s *server) get(url string) (int, []byte, time.Time, error) {
	resp, err := s.client.Get(url)
	if err != nil {
		return 0, nil, time.Now(), err
	}
	body, err := io.ReadAll(resp.Body)
	done := time.Now()
	resp.Body.Close()
	return resp.StatusCode, body, done, err
}

// conn is one load-generator connection, owned by one worker: a request is
// one write and one read on the worker's own goroutine. (net/http's client
// Transport runs a reader and a writer goroutine per connection, two
// goroutine hand-offs per request that the latency would include.)
type conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

// get sends GET path and returns the status, the body and when the whole
// body had arrived. A connection that failed or that the server closes is
// dialled again on the next request.
func (c *conn) get(path string) (int, []byte, time.Time, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, time.Now(), err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	status, body, keep, err := c.roundTrip(path)
	done := time.Now()
	if err != nil || !keep {
		c.close()
	}
	return status, body, done, err
}

func (c *conn) roundTrip(path string) (status int, body []byte, keep bool, err error) {
	if err := c.nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, nil, false, err
	}
	if _, err := io.WriteString(c.nc, "GET "+path+" HTTP/1.1\r\nHost: "+c.addr+"\r\n\r\n"); err != nil {
		return 0, nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, false, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, !resp.Close, err
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}

// post sends one update body and drains the reply.
func (s *server) post(path string, body []byte) error {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("load: status %d", resp.StatusCode)
	}
	return nil
}

// decode parses a 200 reply.
func decode(status int, body []byte) (*wireReply, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d", status)
	}
	var wr wireReply
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, err
	}
	return &wr, nil
}

func spanName(q query) string {
	if q.knn {
		return "http.knn"
	}
	return "http.range"
}

// bodyKeeper keeps, for the check after the timed window, the first reply
// body to each pool query, and compares every later body to the same query
// with it by a hash of its bytes as it arrives: the timestep is frozen, so
// the server's replies to one query are byte-identical. A body that differs
// is kept as well. (Decoding JSON between requests left the server idle
// while a user decoded, and a kNN median that depended on whether the
// other user's request shared the server.)
type bodyKeeper struct {
	mu    sync.Mutex
	seed  maphash.Seed
	first map[int]*keptBody // by pool index
	other []keptBody        // bodies that differ from the first
}

type keptBody struct {
	q    int
	sum  uint64
	body []byte
	n    int64 // replies it stands for
}

func newBodyKeeper() *bodyKeeper {
	return &bodyKeeper{seed: maphash.MakeSeed(), first: map[int]*keptBody{}}
}

func (k *bodyKeeper) offer(q int, body []byte) {
	sum := maphash.Bytes(k.seed, body)
	k.mu.Lock()
	defer k.mu.Unlock()
	switch kb := k.first[q]; {
	case kb == nil:
		k.first[q] = &keptBody{q: q, sum: sum, body: body, n: 1}
	case kb.sum == sum && len(kb.body) == len(body):
		kb.n++
	default:
		k.other = append(k.other, keptBody{q: q, sum: sum, body: body, n: 1})
	}
}

// check decodes every kept body and records the verdicts on the replies it
// stands for against the reference g.
func (k *bodyKeeper) check(g *grid, pool []query, r *report) {
	var all []keptBody
	for _, kb := range k.first {
		all = append(all, *kb)
	}
	for _, kb := range append(all, k.other...) {
		q := pool[kb.q]
		wr, err := decode(http.StatusOK, kb.body)
		switch {
		case err != nil:
			r.verdicts(err, true, kb.n)
		case wr.Degraded:
			r.verdicts(failure(nil, true), true, kb.n)
		default:
			r.checkKept(g, q, kept{a: wr.answer(q), n: kb.n})
		}
	}
}

// httpLayers accumulates the traced requests' per-layer measurements.
type httpLayers struct {
	mu                   sync.Mutex
	storeUS, selfUS      []float64
	bytes, results       int64
	fanout, traced, hits int64
	nodeVisits, rangeQs  int64
	elemTests, rtResults int64
	shed                 int64
	tracedUS, plainUS    []float64 // range latencies, for the tracing overhead
}

func runAnalysisHTTP(ctx context.Context, c config, r *report) error {
	sz := analysisSizes(c.tiny)
	rng := rand.New(rand.NewSource(c.seed))
	d := neurons(sz.elements, c.seed)
	items := itemsOf(d)
	g := newGrid(items)
	pool := queryPool(d, g, sz.pool, 40, rng)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	picks := make([]int, 1<<16)
	for i := range picks {
		picks[i] = int(zipf.Uint64())
	}
	up := struct {
		Upserts []wireItem `json:"upserts"`
	}{Upserts: make([]wireItem, len(items))}
	for i, it := range items {
		up.Upserts[i] = wireItem{ID: it.ID, Min: [3]float64{it.Box.Min.X, it.Box.Min.Y, it.Box.Min.Z}, Max: [3]float64{it.Box.Max.X, it.Box.Max.Y, it.Box.Max.Z}}
	}
	load, err := json.Marshal(up)
	if err != nil {
		return err
	}

	// Set-up: start the server, hand it the timestep through POST
	// /v1/update, and wait for the first correct answer.
	first := pool[0]
	srv, setupS, err := repeatSetup(3, func() (*server, time.Duration, error) {
		t0 := time.Now()
		s, err := startServer(ctx, c.serverBin, 4, sz.cache)
		if err != nil {
			return nil, 0, err
		}
		if err := s.post("/v1/update", load); err != nil {
			s.stop()
			return nil, 0, err
		}
		status, body, _, err := s.get(queryURL(s.base, first, false, false))
		var wr *wireReply
		if err == nil {
			wr, err = decode(status, body)
		}
		if err == nil {
			err = g.checkRange(first.box, wr.answer(first))
		}
		if err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("set-up: first query: %w", err)
		}
		return s, time.Since(t0), nil
	}, (*server).stop)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.e2e("setup_s", setupS, "s", "median of 3 server starts: launch, load, first correct answer")

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	hl := &httpLayers{}
	keep := newBodyKeeper()
	conns := make([]*conn, httpWorkers)
	for w := range conns {
		conns[w] = &conn{addr: strings.TrimPrefix(srv.base, "http://")}
		defer conns[w].close()
	}
	next := 0 // request cursor, advanced per phase so phases draw different requests

	// do returns the request function of a phase that starts at request
	// number offset. Every reply is checked as it arrives against the kept
	// answer to the same query, or kept for the check after the window.
	do := func(offset int) func(w, i int) time.Time {
		return func(w, i int) time.Time {
			k := offset + i
			qi := picks[k%len(picks)]
			q := pool[qi]
			isProbe := k%sz.probeEvery == sz.probeEvery-1
			traced := tr != nil && !isProbe && k%httpTraceEvery == httpTraceEvery/2
			plain := tr != nil && !isProbe && k%httpTraceEvery == 0
			req := tr.newReq()
			t0 := time.Now()
			status, body, t1, err := conns[w].get(queryURL("", q, isProbe, traced))
			if isProbe {
				r.probe(err == nil && status == http.StatusBadRequest)
				return t1
			}
			if status == http.StatusServiceUnavailable {
				hl.mu.Lock()
				hl.shed++
				hl.mu.Unlock()
			}
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			if err != nil {
				r.verdict(err, true)
				return t1
			}
			if !traced {
				keep.offer(qi, body)
				if plain {
					tr.record(tr.newID(), 0, req, spanName(q), t0, t1)
					hl.observe(q.knn, false, t1.Sub(t0), len(body), nil)
				}
				return t1
			}
			// A traced reply carries its span tree, so it is decoded and
			// checked here rather than compared with the kept body.
			wr, err := decode(status, body)
			if err != nil {
				r.verdict(err, true)
				return t1
			}
			r.check(g, q, wr.answer(q), failure(nil, wr.Degraded))
			id := tr.newID()
			tr.graft(id, req, t0, t1, wr.Trace)
			tr.record(id, 0, req, spanName(q), t0, t1)
			hl.observe(q.knn, true, t1.Sub(t0), len(body), wr)
			return t1
		}
	}
	closed := func(dur time.Duration) []time.Duration {
		lats := closedLoop(ctx, dur, httpUsers, do(next))
		next += len(lats)
		return lats
	}
	open := func(rate float64, dur time.Duration) []timing {
		ts := openLoop(ctx, rate, dur, httpWorkers, do(next))
		next += len(ts)
		return ts
	}

	// Latency: one closed-loop user after a warm-up whose answers are
	// checked but not timed; then the open-loop rate ladder. A traced run is
	// the same with one request in httpTraceEvery traced.
	measure := c.measure()
	closed(sz.warmup)
	refDur := (measure - sz.warmup) * 7 / 10
	rss := sampleRSS(srv.cmd.Process.Pid)
	start := next
	lats := closed(refDur)
	var lat latencies
	for i, d := range lats {
		k := start + i
		if k%sz.probeEvery != sz.probeEvery-1 {
			lat.add(pool[picks[k%len(picks)]].knn, d)
		}
	}
	lat.report(r)
	if err := rss.finish(r, "spatialserver"); err != nil {
		return err
	}

	// Rate ladder: the highest rate whose p99 meets the limit with no
	// growing backlog (the last tenth of the step sent on time).
	maxRate := 0.0
	stepDur := (measure - sz.warmup - refDur) / time.Duration(len(sz.ladder))
	var ladder []timing
	for _, rate := range sz.ladder {
		if ctx.Err() != nil {
			break
		}
		begin := next
		ts := open(rate, stepDur)
		ladder = append(ladder, ts...)
		var all []float64
		for i, t := range ts {
			if (begin+i)%sz.probeEvery != sz.probeEvery-1 {
				all = append(all, us(t.lat))
			}
		}
		p99 := percentile(all, 99)
		tail := lagP99US(ts[len(ts)*9/10:])
		r.e2e(fmt.Sprintf("ladder_%g_p99_us", rate), p99, "us", countBase(len(all), "requests")+fmt.Sprintf(", tail lag p99 %.0fus", tail))
		if p99 > us(c.latencyLimit) || tail > us(c.latencyLimit) {
			break
		}
		maxRate = rate
	}
	r.e2e("max_rate_qps", maxRate, "1/s", fmt.Sprintf("ladder %v, p99 limit %v", sz.ladder, c.latencyLimit))

	// The oracle runs after the timed window.
	keep.check(g, pool, r)
	if tr != nil {
		hl.report(r, tr, ladder)
		if err := tr.writeJSONL(filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))); err != nil {
			return err
		}
	}
	return nil
}

func (hl *httpLayers) observe(knn, traced bool, rt time.Duration, size int, wr *wireReply) {
	hl.mu.Lock()
	defer hl.mu.Unlock()
	if !knn {
		if traced {
			hl.tracedUS = append(hl.tracedUS, us(rt))
		} else {
			hl.plainUS = append(hl.plainUS, us(rt))
		}
	}
	if !traced {
		return
	}
	hl.traced++
	hl.bytes += int64(size)
	hl.results += int64(len(wr.Items))
	if wr.Plan != nil {
		hl.fanout += int64(wr.Plan.FanOut)
		if wr.Plan.CacheHit {
			hl.hits++
		}
	}
	if wr.Trace == nil {
		return
	}
	// The store span: from the first to the end of the last stage under the
	// handler root (admit .. fan-out), i.e. Store.Query.
	var lo, hi int64 = math.MaxInt64, 0
	for _, ch := range wr.Trace.Children {
		lo = min(lo, ch.OffsetMicros)
		hi = max(hi, ch.OffsetMicros+ch.DurationMicros)
	}
	if hi >= lo {
		hl.storeUS = append(hl.storeUS, float64(hi-lo))
		hl.selfUS = append(hl.selfUS, us(rt)-float64(hi-lo))
	}
	if knn || (wr.Plan != nil && wr.Plan.CacheHit) {
		return
	}
	hl.rangeQs++
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if s.Stage == "shard_visit" {
			if m, ok := s.Attrs["counters"].(map[string]any); ok {
				num := func(k string) int64 { f, _ := m[k].(float64); return int64(f) }
				hl.nodeVisits += num("node_visits")
				hl.elemTests += num("elem_intersect_tests")
				hl.rtResults += num("results")
			}
		}
		for _, ch := range s.Children {
			walk(ch)
		}
	}
	walk(wr.Trace)
}

func (hl *httpLayers) report(r *report, tr *tracer, ts []timing) {
	f := fmt.Sprintf
	// Server spans are whole microseconds, so the mean resolves what a
	// median of integers cannot.
	r.layer("serve.query_us", mean(hl.storeUS), "us", countBase(len(hl.storeUS), "server store spans (?trace=1), mean"))
	r.layer("http.self_us", median(hl.selfUS), "us", countBase(len(hl.selfUS), "round trip minus server store span, median"))
	r.layer("http.client_self_us", median(tr.selfTimes("http.range")), "us", "client range span minus grafted server handler span, median")
	r.layer("http.bytes_per_result", float64(hl.bytes)/float64(max(hl.results, 1)), "B", f("%d bytes / %d results", hl.bytes, hl.results))
	r.layer("serve.fanout", float64(hl.fanout)/float64(max(hl.traced, 1)), "count", f("mean plan fan_out over %d traced requests", hl.traced))
	r.layer("serve.cache_hit_ratio", float64(hl.hits)/float64(max(hl.traced, 1)), "ratio", f("%d hits / %d traced requests", hl.hits, hl.traced))
	r.layer("serve.shed", float64(hl.shed), "count", "503 replies")
	r.layer("rtree.node_visits_per_query", float64(hl.nodeVisits)/float64(max(hl.rangeQs, 1)), "count", f("%d node visits / %d uncached range queries", hl.nodeVisits, hl.rangeQs))
	r.layer("rtree.results_per_elem_test", float64(hl.rtResults)/float64(max(hl.elemTests, 1)), "ratio", f("%d results / %d element tests", hl.rtResults, hl.elemTests))
	r.layer("loadgen.lag_p99_us", lagP99US(ts), "us", countBase(len(ts), "open-loop ladder requests"))
	r.layer("trace.overhead_us", median(hl.tracedUS)-median(hl.plainUS), "us",
		f("range p50 traced (n=%d) minus untraced (n=%d), interleaved one in %d each", len(hl.tracedUS), len(hl.plainUS), httpTraceEvery))
}
