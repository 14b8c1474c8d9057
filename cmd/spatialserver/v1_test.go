package main

// The error envelope, request ids and opt-in plan reporting on the store's
// /v1 routes, and the shared test helpers.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/planner"
	"spatialsim/internal/serve"
)

// seedStore bootstraps the same grid dataset testServer uses.
func seedStore(t *testing.T, store *serve.Store, n int) {
	t.Helper()
	items := make([]index.Item, n)
	for i := range items {
		x := float64(i % 10)
		y := float64(i / 10)
		items[i] = index.Item{ID: int64(i), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
	}
	store.Bootstrap(items)
}

// newTestHTTP serves an already-configured store and returns its base URL.
func newTestHTTP(t *testing.T, store *serve.Store) string {
	t.Helper()
	ts := httptest.NewServer(newHandler(store, obs.NewRegistry(), nil, 0))
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return ts.URL
}

func getResp(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp, body
}

func TestErrorEnvelopeShape(t *testing.T) {
	_, ts := testServer(t, 10)
	cases := []struct {
		path     string
		status   int
		code     string
		fragment string
	}{
		{"/v1/range?minx=bad", http.StatusBadRequest, "bad_request", "minx..maxz"},
		{"/v1/knn?x=1&y=1&z=1&k=0", http.StatusBadRequest, "bad_request", "k out of range"},
		{"/v1/join?eps=abc", http.StatusBadRequest, "bad_request", "eps"},
		{"/v1/query?op=teleport", http.StatusNotFound, "not_found", "no route /v1/query"},
	}
	for _, tc := range cases {
		resp, body := getResp(t, ts.URL+tc.path)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		var env httpapi.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: error body is not the envelope: %v (%s)", tc.path, err, body)
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.path, env.Error.Code, tc.code)
		}
		if !strings.Contains(env.Error.Message, tc.fragment) {
			t.Errorf("%s: message %q missing %q", tc.path, env.Error.Message, tc.fragment)
		}
	}

	// POST-only endpoints reject GET with the envelope as well.
	resp, body := getResp(t, ts.URL+"/v1/update")
	var env httpapi.ErrorEnvelope
	if resp.StatusCode != http.StatusMethodNotAllowed || json.Unmarshal(body, &env) != nil ||
		env.Error.Code != "method_not_allowed" {
		t.Fatalf("GET /v1/update: %d %s", resp.StatusCode, body)
	}
}

func TestRequestIDs(t *testing.T) {
	_, ts := testServer(t, 10)

	resp, _ := getResp(t, ts.URL+"/v1/healthz")
	gen := resp.Header.Get("X-Request-Id")
	if gen == "" {
		t.Fatal("response missing generated X-Request-Id")
	}
	resp2, _ := getResp(t, ts.URL+"/v1/healthz")
	if resp2.Header.Get("X-Request-Id") == gen {
		t.Fatal("generated request ids must be unique per request")
	}

	// A client-provided id is echoed back, on served routes and on the
	// not-found answer alike.
	for _, path := range []string{"/v1/stats", "/stats"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("X-Request-Id", "client-abc")
		echo, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		echo.Body.Close()
		if got := echo.Header.Get("X-Request-Id"); got != "client-abc" {
			t.Fatalf("%s: echoed id %q, want client-abc", path, got)
		}
	}
}

func TestPlanReportingOptIn(t *testing.T) {
	store, err := serve.New(serve.Config{Shards: 4, Workers: 2, Planner: planner.Default(), CacheEntries: 64})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	seedStore(t, store, 200)
	ts := newTestHTTP(t, store)

	// Without plan=1 the payload carries no plan field at all.
	_, plain := getResp(t, ts+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=30&maxy=30&maxz=2")
	if strings.Contains(string(plain), "\"plan\"") {
		t.Fatalf("plan reported without opt-in: %s", plain)
	}

	// A box not queried before: the first request must miss, the repeat hit.
	var resp httpapi.QueryResponse
	getJSON(t, ts+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=31&maxy=31&maxz=2&plan=1", &resp)
	if resp.Plan == nil {
		t.Fatal("plan=1 response missing plan")
	}
	if resp.Plan.Family == "" || resp.Plan.FanOut <= 0 {
		t.Fatalf("plan incomplete: %+v", resp.Plan)
	}
	if resp.Plan.CacheHit {
		t.Fatalf("first query cannot be a cache hit: %+v", resp.Plan)
	}
	var again httpapi.QueryResponse
	getJSON(t, ts+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=31&maxy=31&maxz=2&plan=1", &again)
	if again.Plan == nil || !again.Plan.CacheHit {
		t.Fatalf("repeat query should hit the epoch cache: %+v", again.Plan)
	}
	if again.Count != resp.Count || again.Epoch != resp.Epoch {
		t.Fatalf("cache hit changed the answer: %+v vs %+v", again, resp)
	}

	var jr httpapi.JoinResponse
	getJSON(t, ts+"/v1/join?eps=0.5&plan=1", &jr)
	if jr.Plan == nil || jr.Plan.Algorithm == "" {
		t.Fatalf("join plan must report the chosen algorithm: %+v", jr.Plan)
	}
	if jr.Plan.Algorithm != jr.Algorithm {
		t.Fatalf("plan algorithm %q disagrees with response algorithm %q", jr.Plan.Algorithm, jr.Algorithm)
	}
}
