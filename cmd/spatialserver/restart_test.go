package main

// The durability acceptance test: a server restarted mid-workload must
// recover the last persisted epoch and answer range/kNN/join queries with
// responses byte-identical to the ones it gave before the restart — same
// items, same order, same epoch labels, same JSON bytes.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialsim/internal/geom"
	"spatialsim/internal/httpapi"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

func durableServer(t *testing.T, dir string) (*serve.Store, *persist.Store, *httptest.Server) {
	t.Helper()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := serve.Open(serve.Config{Shards: 4, Workers: 2, Persist: ps})
	if err != nil {
		ps.Close()
		t.Fatal(err)
	}
	return store, ps, httptest.NewServer(newHandler(store, obs.NewRegistry(), nil, 0))
}

func getBody(t *testing.T, url string) []byte {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

func TestRestartServesByteIdenticalResponses(t *testing.T) {
	dir := t.TempDir()

	store, ps, ts := durableServer(t, dir)
	r := rand.New(rand.NewSource(31))
	items := make([]index.Item, 3000)
	for i := range items {
		c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
		items[i] = index.Item{ID: int64(i + 1), Box: geom.AABBFromCenter(c, geom.V(0.6, 0.6, 0.6))}
	}
	store.Bootstrap(items)

	// Mid-workload: a few update batches over HTTP, like live traffic.
	for batch := 0; batch < 3; batch++ {
		var req httpapi.UpdateRequest
		for j := 0; j < 20; j++ {
			id := int64(10000 + batch*100 + j)
			c := geom.V(r.Float64()*100, r.Float64()*100, r.Float64()*100)
			b := geom.AABBFromCenter(c, geom.V(0.5, 0.5, 0.5))
			req.Upserts = append(req.Upserts, httpapi.Item{
				ID:  id,
				Min: [3]float64{b.Min.X, b.Min.Y, b.Min.Z},
				Max: [3]float64{b.Max.X, b.Max.Y, b.Max.Z},
			})
		}
		req.Deletes = []int64{int64(batch*7 + 1)}
		payload, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/update", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	queries := []string{
		"/v1/range?minx=10&miny=10&minz=10&maxx=55&maxy=55&maxz=55",
		"/v1/range?minx=0&miny=0&minz=0&maxx=100&maxy=100&maxz=100&limit=50",
		"/v1/knn?x=42&y=42&z=42&k=15",
		"/v1/knn?x=0&y=100&z=0&k=3",
		"/v1/join?eps=0.4&limit=2000",
		"/v1/join?eps=0.4&algo=grid&limit=2000",
	}
	before := make([][]byte, len(queries))
	for i, q := range queries {
		before[i] = getBody(t, ts.URL+q)
	}

	// Restart: clean shutdown (the final snapshot persists epoch 4), then a
	// brand-new process-equivalent stack over the same data dir.
	ts.Close()
	store.Close()
	ps.Close()

	store2, ps2, ts2 := durableServer(t, dir)
	defer func() { ts2.Close(); store2.Close(); ps2.Close() }()

	rec := store2.Recovery()
	if !rec.Recovered || rec.Epoch != 4 {
		t.Fatalf("recovery: %+v, want epoch 4", rec)
	}
	var recBody map[string]interface{}
	if err := json.Unmarshal(getBody(t, ts2.URL+"/v1/recovery"), &recBody); err != nil {
		t.Fatal(err)
	}
	if recBody["epoch"].(float64) != 4 {
		t.Fatalf("/v1/recovery reports %v", recBody)
	}

	for i, q := range queries {
		after := getBody(t, ts2.URL+q)
		if !bytes.Equal(before[i], after) {
			t.Errorf("%s: response differs after restart\nbefore: %.200s\nafter:  %.200s", q, before[i], after)
		}
	}

	// /snapshot forces persistence of a post-restart epoch.
	store2.Apply([]serve.Update{{ID: 99999, Box: geom.NewAABB(geom.V(1, 1, 1), geom.V(2, 2, 2))}})
	resp, err := http.Post(ts2.URL+"/v1/snapshot", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"persisted_epoch":5`)) {
		t.Fatalf("/v1/snapshot: status %d body %s", resp.StatusCode, body)
	}
}

func TestSnapshotEndpointWithoutPersistence(t *testing.T) {
	_, ts := testServer(t, 10)
	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/v1/snapshot on in-memory store: status %d, want 409", resp.StatusCode)
	}
}
