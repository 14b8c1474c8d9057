package httpapi

// In-process handler benchmarks over a cached neuron store: a repeated range
// (cache hit, encoding spliced), a range that always misses (query, encode
// and store the encoding) and repeated kNN queries.
//
//	go test -run xxx -bench BenchmarkHandler -benchmem ./internal/httpapi/

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// benchCache is the entry cap of spatialserver's analysis configuration.
const benchCache = 1024

// neuronAPI serves a 20k-segment neuron store with a result cache and
// returns data-centred range boxes over it.
func neuronAPI(b *testing.B, queries int) (*Server, []geom.AABB) {
	b.Helper()
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(50, 400, 1))
	items := make([]index.Item, d.Len())
	for i, e := range d.Elements {
		items[i] = index.Item{ID: e.ID, Box: e.Box}
	}
	st, err := serve.New(serve.Config{Shards: 4, Workers: 2, CacheEntries: benchCache})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	st.Bootstrap(items)
	return New(Store{st}, obs.NewRegistry(), nil, 0), datagen.GenerateDataCenteredQueries(d, queries, 3e-4, 1)
}

func rangeRequest(q geom.AABB) *http.Request {
	r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/range?minx=%g&miny=%g&minz=%g&maxx=%g&maxy=%g&maxz=%g",
		q.Min.X, q.Min.Y, q.Min.Z, q.Max.X, q.Max.Y, q.Max.Z), nil)
	r.Header.Set("X-Request-Id", "bench")
	return r
}

// serveBench runs the requests round-robin and reports the mean body size.
func serveBench(b *testing.B, api *Server, reqs []*http.Request) {
	w := &discardWriter{h: http.Header{}}
	for _, r := range reqs {
		api.ServeHTTP(w, r)
	}
	var bytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		api.ServeHTTP(w, reqs[i%len(reqs)])
		bytes += len(w.last)
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "B/reply")
}

func BenchmarkHandlerRangeHit(b *testing.B) {
	api, qs := neuronAPI(b, 64)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = rangeRequest(q)
	}
	serveBench(b, api, reqs)
}

// BenchmarkHandlerRangeMiss cycles through four times the cache's entries,
// so FIFO eviction makes every request a miss.
func BenchmarkHandlerRangeMiss(b *testing.B) {
	api, qs := neuronAPI(b, 4*benchCache)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = rangeRequest(q)
	}
	serveBench(b, api, reqs)
}

func BenchmarkHandlerKNN(b *testing.B) {
	api, qs := neuronAPI(b, 64)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		c := q.Center()
		reqs[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/knn?x=%g&y=%g&z=%g&k=10", c.X, c.Y, c.Z), nil)
		reqs[i].Header.Set("X-Request-Id", "bench")
	}
	serveBench(b, api, reqs)
}
