package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

func testServer(t *testing.T, n int) (*serve.Store, *httptest.Server) {
	t.Helper()
	store, err := serve.New(serve.Config{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	items := make([]index.Item, n)
	for i := range items {
		x := float64(i % 10)
		y := float64(i / 10)
		items[i] = index.Item{ID: int64(i), Box: geom.NewAABB(geom.V(x, y, 0), geom.V(x+1, y+1, 1))}
	}
	store.Bootstrap(items)
	ts := httptest.NewServer(newHandler(store, obs.NewRegistry(), nil, 0))
	t.Cleanup(func() {
		ts.Close()
		store.Close()
	})
	return store, ts
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp
}

func TestRangeEndpoint(t *testing.T) {
	_, ts := testServer(t, 100)
	var resp httpapi.QueryResponse
	getJSON(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2", &resp)
	if resp.Count != 100 || len(resp.Items) != 100 {
		t.Fatalf("whole-universe range returned %d items, want 100", resp.Count)
	}
	if resp.Epoch == 0 {
		t.Fatal("range response missing epoch")
	}

	// A query box covering only item 0's cell.
	var one httpapi.QueryResponse
	getJSON(t, ts.URL+"/v1/range?minx=0.2&miny=0.2&minz=0.2&maxx=0.8&maxy=0.8&maxz=0.8", &one)
	if one.Count != 1 || one.Items[0].ID != 0 {
		t.Fatalf("point-sized range got %+v, want exactly item 0", one.Items)
	}
}

func TestKNNEndpoint(t *testing.T) {
	_, ts := testServer(t, 100)
	var resp httpapi.QueryResponse
	getJSON(t, ts.URL+"/v1/knn?x=0.5&y=0.5&z=0.5&k=3", &resp)
	if resp.Count != 3 {
		t.Fatalf("knn returned %d items, want 3", resp.Count)
	}
	if resp.Items[0].ID != 0 {
		t.Fatalf("nearest to item 0's center is id %d, want 0", resp.Items[0].ID)
	}
}

func TestUpdateEndpointSwapsEpoch(t *testing.T) {
	_, ts := testServer(t, 50)

	var before httpapi.QueryResponse
	getJSON(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=20&maxy=20&maxz=2", &before)

	body, _ := json.Marshal(httpapi.UpdateRequest{
		Upserts: []httpapi.Item{{ID: 1000, Min: [3]float64{50, 50, 0}, Max: [3]float64{51, 51, 1}}},
		Deletes: []int64{0, 1},
	})
	resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	var ur httpapi.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != 3 || ur.Epoch <= before.Epoch {
		t.Fatalf("update response %+v (before epoch %d)", ur, before.Epoch)
	}

	var after httpapi.QueryResponse
	getJSON(t, ts.URL+"/v1/range?minx=-1&miny=-1&minz=-1&maxx=60&maxy=60&maxz=2", &after)
	if after.Count != 49 { // 50 - 2 deletes + 1 upsert
		t.Fatalf("after update range returned %d items, want 49", after.Count)
	}
	if after.Epoch != ur.Epoch {
		t.Fatalf("query epoch %d, want the update's %d", after.Epoch, ur.Epoch)
	}
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	_, ts := testServer(t, 80)
	var stats map[string]interface{}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["items"].(float64) != 80 {
		t.Fatalf("stats items = %v, want 80", stats["items"])
	}
	if _, ok := stats["shards"]; !ok {
		t.Fatal("stats missing shards")
	}

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestBadRequests pins the server's route table: the pre-versioning aliases
// and the /v1/query dispatcher are gone (404 in the error envelope), and the
// POST-only routes reject GET. Parameter validation is the shared front
// end's and lives in internal/httpapi's contract test.
func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, 10)
	for _, tc := range []struct {
		path   string
		status int
		code   string
	}{
		{"/range?minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1", http.StatusNotFound, "not_found"},
		{"/knn?x=1&y=2&z=3", http.StatusNotFound, "not_found"},
		{"/join?eps=0", http.StatusNotFound, "not_found"},
		{"/update", http.StatusNotFound, "not_found"},
		{"/snapshot", http.StatusNotFound, "not_found"},
		{"/recovery", http.StatusNotFound, "not_found"},
		{"/stats", http.StatusNotFound, "not_found"},
		{"/healthz", http.StatusNotFound, "not_found"},
		{"/v1/query?op=range&minx=0&miny=0&minz=0&maxx=1&maxy=1&maxz=1", http.StatusNotFound, "not_found"},
		{"/v1/update", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"/v1/snapshot", http.StatusMethodNotAllowed, "method_not_allowed"},
	} {
		resp, body := getResp(t, ts.URL+tc.path)
		if resp.StatusCode != tc.status {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.status)
		}
		if eb := decodeError(t, body); eb.Code != tc.code {
			t.Errorf("GET %s: code %q, want %q", tc.path, eb.Code, tc.code)
		}
	}
}

func TestRunRejectsUnknownIndex(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-index", "btree", "-elements", "10", "-addr", "127.0.0.1:0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown shard family") {
		t.Fatalf("run with unknown index: err = %v", err)
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Fatal("run with bad flag should fail")
	}
}

func TestJoinEndpoint(t *testing.T) {
	store, ts := testServer(t, 100)
	var resp httpapi.JoinResponse
	getJSON(t, ts.URL+"/v1/join?eps=0", &resp)
	if resp.Count == 0 || len(resp.Pairs) == 0 {
		t.Fatalf("join over touching unit cubes found no pairs: %+v", resp)
	}
	if resp.Epoch == 0 || resp.Algorithm == "" || resp.Items != 100 {
		t.Fatalf("join response metadata incomplete: %+v", resp)
	}
	// Pairs arrive in canonical order with A < B.
	for _, p := range resp.Pairs {
		if p[0] >= p[1] {
			t.Fatalf("pair %v not ordered", p)
		}
	}

	// Forcing an algorithm is echoed back and yields the same pair count.
	var grid httpapi.JoinResponse
	getJSON(t, ts.URL+"/v1/join?eps=0&algo=grid&workers=2", &grid)
	if grid.Algorithm != "grid" || grid.Count != resp.Count {
		t.Fatalf("forced grid join: %+v, want algorithm=grid count=%d", grid, resp.Count)
	}

	// The limit truncates the body, not the count.
	var lim httpapi.JoinResponse
	getJSON(t, ts.URL+"/v1/join?eps=0&limit=3", &lim)
	if len(lim.Pairs) != 3 || !lim.Truncated || lim.Count != resp.Count {
		t.Fatalf("limited join: %+v, want 3 pairs, truncated, count=%d", lim, resp.Count)
	}

	// Join traffic shows up in the stats.
	if st := store.Stats(); st.Joins != 3 {
		t.Fatalf("stats joins=%d, want 3", st.Joins)
	}
}

func TestJoinEndpointBadRequests(t *testing.T) {
	_, ts := testServer(t, 10)
	for _, path := range []string{
		"/v1/join",                  // missing eps
		"/v1/join?eps=-1",           // negative eps
		"/v1/join?eps=abc",          // non-numeric eps
		"/v1/join?eps=0&algo=bogus", // unknown algorithm
		"/v1/join?eps=0&limit=0",    // limit out of range
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
