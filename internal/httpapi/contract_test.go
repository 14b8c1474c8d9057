package httpapi

// The front end's contract, checked against both backends it serves: a
// single serve.Store and a 3-node cluster coordinator. Each check is one row
// of the table in TestContract and runs unchanged on either backend.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// testBody is a cap low enough for the 413 check to send a small body.
const testBody = 4 << 10

// fixture is one backend served over HTTP.
type fixture struct {
	url  string
	hint func() time.Duration
	// stage is a backend span a traced range's tree must contain.
	stage string
	// saturate makes the next range answer 503 with code; the returned func
	// undoes it.
	saturate func(t *testing.T) (code string, undo func())
}

// gridItems is n unit cubes on a 10-wide grid in the z=0 plane.
func gridItems(n int) []index.Item {
	items := make([]index.Item, n)
	for i := range items {
		x, y := float64(i%10), float64(i/10)
		items[i] = index.Item{ID: int64(i), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
	}
	return items
}

func serveAPI(t *testing.T, b Backend, reg *obs.Registry) string {
	t.Helper()
	api := New(b, reg, nil, 0)
	api.maxBody = testBody
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return ts.URL
}

// storeFixture serves one store whose single admission slot and single
// queue place let two stalled queries saturate it.
func storeFixture(t *testing.T) fixture {
	reg := obs.NewRegistry()
	st, err := serve.New(serve.Config{Shards: 2, Workers: 2, MaxInFlight: 1, MaxQueued: 1, CacheEntries: 16, Metrics: reg})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(st.Close)
	st.Bootstrap(gridItems(100))
	url := serveAPI(t, Store{st}, reg)
	return fixture{
		url:   url,
		hint:  st.RetryAfterHint,
		stage: "admit",
		saturate: func(t *testing.T) (string, func()) {
			faultinject.SetSeed(1)
			faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{LatencyRate: 1, Latency: 10 * time.Second})
			// Two requests take the slot and the queue place; their stalls
			// end at their own deadlines.
			done := make(chan struct{}, 2)
			for i := 0; i < 2; i++ {
				go func() {
					defer func() { done <- struct{}{} }()
					if resp, err := http.Get(url + "/v1/range?minx=0&miny=0&minz=0&maxx=20&maxy=20&maxz=2&timeout=2s"); err == nil {
						resp.Body.Close()
					}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); st.Stats().Queued < 1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("second request never reached the admission queue")
				}
			}
			return "overloaded", func() {
				faultinject.Reset()
				<-done
				<-done
			}
		},
	}
}

// clusterFixture serves a 3-node replication-1 fleet; killing every node
// leaves no owner to answer.
func clusterFixture(t *testing.T) fixture {
	reg := obs.NewRegistry()
	nodes := make([]*cluster.Node, 3)
	trs := make([]cluster.Transport, 3)
	for i := range nodes {
		st, err := serve.Open(serve.Config{Shards: 2})
		if err != nil {
			t.Fatalf("serve.Open: %v", err)
		}
		t.Cleanup(st.Close)
		nodes[i] = cluster.NewNode(fmt.Sprintf("n%d", i), st)
		trs[i] = nodes[i]
	}
	co, err := cluster.New(cluster.Config{Transports: trs, Replication: 1, Metrics: reg})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(co.Close)
	if _, err := co.Bootstrap(gridItems(100)); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	return fixture{
		url:   serveAPI(t, Cluster{co}, reg),
		hint:  co.RetryAfterHint,
		stage: "cluster_fanout",
		saturate: func(t *testing.T) (string, func()) {
			for _, n := range nodes {
				n.Kill()
			}
			return "unavailable", func() {
				for _, n := range nodes {
					n.Revive()
				}
			}
		},
	}
}

func get(t *testing.T, url string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	return do(t, req)
}

func do(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: read: %v", req.Method, req.URL, err)
	}
	return resp, body
}

// wantError checks status and the error envelope's code.
func wantError(t *testing.T, what string, resp *http.Response, body []byte, status int, code string) ErrorBody {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: error body is not the envelope: %v (%s)", what, err, body)
	}
	if resp.StatusCode != status || env.Error.Code != code {
		t.Fatalf("%s: %d %q, want %d %q (%s)", what, resp.StatusCode, env.Error.Code, status, code, body)
	}
	return env.Error
}

const box = "minx=0&miny=0&minz=0&maxx=5&maxy=5&maxz=1"

var badRequests = []struct{ path, fragment string }{
	{"/v1/range?minx=nope", "minx..maxz"},
	{"/v1/range?minx=NaN&miny=0&minz=0&maxx=5&maxy=5&maxz=1", "finite"},
	{"/v1/range?minx=0&miny=0&minz=0&maxx=Inf&maxy=5&maxz=1", "finite"},
	{"/v1/range?minx=-Inf&miny=0&minz=0&maxx=5&maxy=5&maxz=1", "finite"},
	{"/v1/knn?x=1&y=2", "x, y, z"},
	{"/v1/knn?x=NaN&y=0&z=0&k=3", "finite"},
	{"/v1/knn?x=0&y=%2BInf&z=0", "finite"},
	{"/v1/knn?x=1&y=1&z=1&k=0", "k out of range"},
	{"/v1/knn?x=1&y=2&z=3&k=-5", "k out of range"},
	{"/v1/join", "eps"},
	{"/v1/join?eps=-1", "eps"},
	{"/v1/join?eps=abc", "eps"},
	{"/v1/join?eps=NaN", "eps"},
	{"/v1/join?eps=Inf", "eps"},
	{"/v1/join?eps=0&algo=bogus", "unknown join algorithm"},
	{"/v1/join?eps=0&limit=0", "limit out of range"},
	// Unparsable, non-positive, and absurd (300m is the classic typo for
	// 300ms that would pin a slot for hours).
	{"/v1/range?" + box + "&timeout=nope", "timeout"},
	{"/v1/range?" + box + "&timeout=-5ms", "timeout"},
	{"/v1/range?" + box + "&timeout=0s", "timeout"},
	{"/v1/range?" + box + "&timeout=300m", "timeout"},
	{"/v1/knn?x=1&y=1&z=1&timeout=1000h", "timeout"},
}

var checks = []struct {
	name string
	run  func(t *testing.T, f fixture)
}{
	{"bad_requests", func(t *testing.T, f fixture) {
		for _, tc := range badRequests {
			resp, body := get(t, f.url+tc.path)
			if eb := wantError(t, tc.path, resp, body, http.StatusBadRequest, "bad_request"); !strings.Contains(eb.Message, tc.fragment) {
				t.Errorf("%s: message %q missing %q", tc.path, eb.Message, tc.fragment)
			}
		}
		resp, body := get(t, f.url+"/v1/update")
		wantError(t, "GET /v1/update", resp, body, http.StatusMethodNotAllowed, "method_not_allowed")
	}},
	{"request_id", func(t *testing.T, f fixture) {
		first, _ := get(t, f.url+"/v1/healthz")
		second, _ := get(t, f.url+"/v1/healthz")
		if id := first.Header.Get("X-Request-Id"); id == "" || id == second.Header.Get("X-Request-Id") {
			t.Fatalf("generated ids %q, %q: want non-empty and unique", id, second.Header.Get("X-Request-Id"))
		}
		for _, path := range []string{"/v1/stats", "/v1/range?minx=bad"} {
			if resp, _ := get(t, f.url+path, "X-Request-Id", "client-abc"); resp.Header.Get("X-Request-Id") != "client-abc" {
				t.Fatalf("%s: echoed id %q, want client-abc", path, resp.Header.Get("X-Request-Id"))
			}
		}
	}},
	{"trace", func(t *testing.T, f fixture) {
		if _, plain := get(t, f.url+"/v1/range?"+box); strings.Contains(string(plain), `"trace"`) {
			t.Fatalf("untraced reply has a trace: %s", plain)
		}
		_, body := get(t, f.url+"/v1/range?minx=0&miny=0&minz=0&maxx=6&maxy=6&maxz=1&trace=1")
		var rep QueryResponse
		if err := json.Unmarshal(body, &rep); err != nil || rep.Trace == nil {
			t.Fatalf("?trace=1 reply has no trace (%v): %s", err, body)
		}
		if rep.Trace.Stage != "/v1/range" {
			t.Fatalf("trace root stage %q, want the request path", rep.Trace.Stage)
		}
		stages := map[string]bool{}
		var walk func(s *obs.SpanJSON)
		walk = func(s *obs.SpanJSON) {
			stages[s.Stage] = true
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(rep.Trace)
		for _, want := range []string{f.stage, "parse", "encode"} {
			if !stages[want] {
				t.Errorf("trace missing %q (got %v)", want, stages)
			}
		}
	}},
	{"content_length", func(t *testing.T, f fixture) {
		// Every item: a body past net/http's 2 KiB chunking threshold.
		resp, body := get(t, f.url+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2")
		if resp.StatusCode != http.StatusOK || len(body) <= 2<<10 {
			t.Fatalf("status %d, %d-byte body: want 200 over 2 KiB", resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body: want the length, not chunked",
				resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}},
	{"deadline_504", func(t *testing.T, f fixture) {
		resp, body := get(t, f.url+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2&timeout=1ns")
		wantError(t, "timeout=1ns", resp, body, http.StatusGatewayTimeout, "deadline_exceeded")
	}},
	{"update_413", func(t *testing.T, f fixture) {
		post := func(body string) (*http.Response, []byte) {
			req, err := http.NewRequest(http.MethodPost, f.url+"/v1/update", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			return do(t, req)
		}
		item := `{"id":5000,"min":[50,50,0],"max":[51,51,1]}`
		if resp, body := post(`{"upserts":[` + item + `]}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("update under the cap: status %d: %s", resp.StatusCode, body)
		}
		big := `{"upserts":[` + strings.Repeat(item+",", testBody/len(item)) + item + `]}`
		resp, body := post(big)
		wantError(t, "oversized update", resp, body, http.StatusRequestEntityTooLarge, "too_large")
	}},
	{"metrics", func(t *testing.T, f fixture) {
		resp, body := get(t, f.url+"/metrics")
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("/metrics Content-Type %q", ct)
		}
		for _, want := range []string{
			`spatial_http_request_seconds_bucket{route="/v1/range",`,
			`spatial_http_request_seconds_count{route="/v1/knn"}`,
			`spatial_http_requests_total{route="/v1/range",code="200"}`,
			`spatial_http_requests_total{route="/v1/range",code="400"}`,
			`spatial_http_requests_total{route="/v1/range",code="504"}`,
			`spatial_http_requests_total{route="/v1/update",code="413"}`,
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}},
	{"unavailable_503", func(t *testing.T, f fixture) {
		code, undo := f.saturate(t)
		defer undo()
		start := time.Now()
		resp, body := get(t, f.url+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2")
		wantError(t, "saturated range", resp, body, http.StatusServiceUnavailable, code)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("503 took %v: the request waited instead of failing fast", elapsed)
		}
		if got, want := resp.Header.Get("Retry-After"), strconv.Itoa(int(f.hint()/time.Second)); got != want {
			t.Fatalf("Retry-After = %q, want the backend's drain estimate %s", got, want)
		}
	}},
}

func TestContract(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	for _, b := range []struct {
		name string
		make func(*testing.T) fixture
	}{{"store", storeFixture}, {"cluster", clusterFixture}} {
		t.Run(b.name, func(t *testing.T) {
			f := b.make(t)
			for _, c := range checks {
				t.Run(c.name, func(t *testing.T) { c.run(t, f) })
			}
		})
	}
}
