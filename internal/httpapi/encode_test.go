package httpapi

// The append-based reply encoder must write exactly what encoding/json
// writes for the same QueryResponse, and the per-entry encoding it stores in
// the epoch cache must stand only for the full, clean, current answer.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spatialsim/internal/cluster"
	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// reference is the body encoding/json writes for the reply: the encoder's
// specification.
func reference(epoch uint64, items []index.Item, d Detail) ([]byte, error) {
	resp := QueryResponse{Epoch: epoch, Count: len(items), Items: make([]Item, len(items)), Detail: d}
	for i, it := range items {
		resp.Items[i] = Item{
			ID:  it.ID,
			Min: [3]float64{it.Box.Min.X, it.Box.Min.Y, it.Box.Min.Z},
			Max: [3]float64{it.Box.Max.X, it.Box.Max.Y, it.Box.Max.Z},
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// encode is the body writeItems builds, without the HTTP plumbing.
func encode(epoch uint64, items []index.Item, d Detail) ([]byte, error) {
	b, _, err := encodeItems(appendHead(nil, epoch, len(items)), items, nil)
	if err != nil {
		return nil, err
	}
	return appendTail(b, d)
}

// fuzzItems decodes raw as 56-byte records: an id and six float64 bit
// patterns (min then max). The boxes are taken verbatim, unnormalized, so
// every float reaches the encoder.
func fuzzItems(raw []byte) []index.Item {
	items := make([]index.Item, 0, len(raw)/56)
	for ; len(raw) >= 56; raw = raw[56:] {
		f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8+8*i:])) }
		items = append(items, index.Item{
			ID:  int64(binary.LittleEndian.Uint64(raw)),
			Box: geom.AABB{Min: geom.V(f(0), f(1), f(2)), Max: geom.V(f(3), f(4), f(5))},
		})
	}
	return items
}

// fuzzDetail turns on one Detail field per flag bit, so the corpus reaches
// every field and their combinations.
func fuzzDetail(flags byte, epoch uint64, msg string) Detail {
	var d Detail
	if flags&1 != 0 {
		d.Plan = &serve.PlanInfo{Family: msg, Algorithm: msg, CacheHit: epoch&1 == 1, FanOut: int(epoch % 9)}
	}
	if flags&2 != 0 {
		d.FanOut, d.Hedges, d.Failovers = int(epoch%5), int(epoch%3), int(epoch%2)
	}
	if flags&4 != 0 {
		d.Degraded = true
		d.ShardErrors = []serve.ShardError{{Shard: int(epoch % 4), Err: msg}}
	}
	if flags&8 != 0 {
		d.NodeErrors = []cluster.NodeError{{Node: "n" + msg, Err: msg}}
	}
	if flags&16 != 0 {
		shard := int(epoch % 4)
		d.Trace = &obs.SpanJSON{Stage: msg, OffsetMicros: int64(epoch % 1000), DurationMicros: 7,
			Attrs:    map[string]any{"bytes": len(msg), "reused": flags&32 != 0, "family": msg},
			Children: []*obs.SpanJSON{{Stage: "encode", Shard: &shard}}}
	}
	return d
}

func FuzzEncodeItems(f *testing.F) {
	f.Add(uint64(1), []byte{}, byte(0), "")
	f.Fuzz(func(t *testing.T, epoch uint64, raw []byte, flags byte, msg string) {
		items, d := fuzzItems(raw), fuzzDetail(flags, epoch, msg)
		want, wantErr := reference(epoch, items, d)
		got, gotErr := encode(epoch, items, d)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("error mismatch: encoding/json %v, encoder %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error text: encoding/json %q, encoder %q", wantErr, gotErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body differs from encoding/json\n got: %s\nwant: %s", got, want)
		}
	})
}

// appendTail decides emptiness field by field; a Detail field it does not
// list would vanish from every reply in which it is the only one set.
func TestAppendTailCoversEveryDetailField(t *testing.T) {
	typ := reflect.TypeOf(Detail{})
	for i := 0; i < typ.NumField(); i++ {
		var d Detail
		f := reflect.ValueOf(&d).Elem().Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Int:
			f.SetInt(1)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("Detail.%s: kind %s not covered by this test", typ.Field(i).Name, f.Kind())
		}
		want, _ := reference(1, nil, d)
		if got, err := encode(1, nil, d); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Detail.%s alone: got %s (%v), want %s", typ.Field(i).Name, got, err, want)
		}
	}
}

// cachedStore serves one store with a result cache over n grid items.
func cachedStore(t *testing.T, n int) (*serve.Store, string) {
	t.Helper()
	st, err := serve.New(serve.Config{Shards: 2, Workers: 2, CacheEntries: 64})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(st.Close)
	st.Bootstrap(gridItems(n))
	return st, serveAPI(t, Store{st}, obs.NewRegistry())
}

func ok200(t *testing.T, url string) []byte {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// encodeSpan returns the reply's encode span attributes.
func encodeSpan(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var rep QueryResponse
	if err := json.Unmarshal(body, &rep); err != nil || rep.Trace == nil {
		t.Fatalf("traced reply (%v): %s", err, body)
	}
	for _, c := range rep.Trace.Children {
		if c.Stage == "encode" {
			return c.Attrs
		}
	}
	t.Fatalf("no encode span: %s", body)
	return nil
}

func TestReplyBodiesMatchEncodingJSON(t *testing.T) {
	st, url := cachedStore(t, 300)
	ctx := context.Background()
	boxes := []geom.AABB{
		geom.NewAABB(geom.V(0.2, 0.2, 0), geom.V(4.5, 7.5, 1)),
		geom.NewAABB(geom.V(-5, -5, -5), geom.V(-4, -4, -4)), // empty answer
		geom.NewAABB(geom.V(-1, -1, -1), geom.V(20, 40, 2)),
	}
	for _, q := range boxes {
		path := url + "/v1/range?minx=" + fmtF(q.Min.X) + "&miny=" + fmtF(q.Min.Y) + "&minz=" + fmtF(q.Min.Z) +
			"&maxx=" + fmtF(q.Max.X) + "&maxy=" + fmtF(q.Max.Y) + "&maxz=" + fmtF(q.Max.Z)
		miss, hit := ok200(t, path), ok200(t, path)
		rep := Store{st}.Range(ctx, q)
		want, err := reference(rep.Epoch, rep.Items, Detail{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(miss, want) || !bytes.Equal(hit, want) {
			t.Fatalf("%s:\nmiss %s\nhit  %s\nwant %s", path, miss, hit, want)
		}
	}
	p := geom.V(3.3, 4.4, 0.5)
	miss, hit := ok200(t, url+"/v1/knn?x=3.3&y=4.4&z=0.5&k=7"), ok200(t, url+"/v1/knn?x=3.3&y=4.4&z=0.5&k=7")
	rep := Store{st}.KNN(ctx, p, 7)
	want, _ := reference(rep.Epoch, rep.Items, Detail{})
	if !bytes.Equal(miss, want) || !bytes.Equal(hit, want) {
		t.Fatalf("knn:\nmiss %s\nhit  %s\nwant %s", miss, hit, want)
	}
}

func fmtF(f float64) string { return string(appendFloat(nil, f)) }

// Concurrent first requests race to fill and store one entry's encoding;
// every reply must still be the same bytes.
func TestConcurrentHitsShareOneEncoding(t *testing.T) {
	_, url := cachedStore(t, 300)
	path := url + "/v1/range?minx=-1&miny=-1&minz=-1&maxx=9&maxy=19&maxz=2"
	bodies := make([][]byte, 8)
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, err := http.Get(path)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, %v", resp.StatusCode, err)
					return
				}
				if bodies[g] == nil {
					bodies[g] = body
				} else if !bytes.Equal(body, bodies[g]) {
					t.Errorf("goroutine %d: reply changed between requests", g)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range bodies {
		if !bytes.Equal(bodies[g], bodies[0]) {
			t.Fatalf("goroutines 0 and %d got different replies", g)
		}
	}
}

func TestLimitedHitNeitherReadsNorWritesTheEncoding(t *testing.T) {
	st, url := cachedStore(t, 100)
	q := geom.NewAABB(geom.V(0, 0, 0), geom.V(5, 5, 1))
	path := url + "/v1/range?" + box
	for i := 0; i < 2; i++ { // a miss, then a hit
		var rep QueryResponse
		if err := json.Unmarshal(ok200(t, path+"&limit=3"), &rep); err != nil || rep.Count != 3 || len(rep.Items) != 3 {
			t.Fatalf("limited reply: %v %+v", err, rep)
		}
	}
	slot := Store{st}.Range(context.Background(), q).Encoding
	if slot == nil {
		t.Fatal("a cached range reply carries no encoding slot")
	}
	if enc := slot.Load(); enc != nil {
		t.Fatalf("a truncated reply stored its encoding: %s", enc)
	}
	// A marker in the slot shows which replies read it.
	slot.Store([]byte(`["marker"]`))
	if body := ok200(t, path+"&limit=3"); bytes.Contains(body, []byte("marker")) {
		t.Fatalf("a truncated reply read the slot: %s", body)
	}
	if body := ok200(t, path); !bytes.Contains(body, []byte(`"items":["marker"]`)) {
		t.Fatalf("a full hit did not splice the slot: %s", body)
	}
}

func TestKNNHitsPerKKeepSeparateEncodings(t *testing.T) {
	st, url := cachedStore(t, 100)
	bodies := map[string][]byte{}
	for _, k := range []string{"3", "5"} {
		bodies[k] = ok200(t, url+"/v1/knn?x=4.5&y=4.5&z=0.5&k="+k)
	}
	for _, k := range []string{"3", "5"} {
		body := ok200(t, url+"/v1/knn?x=4.5&y=4.5&z=0.5&k="+k+"&trace=1")
		if a := encodeSpan(t, body); a["reused"] != true {
			t.Fatalf("k=%s hit did not reuse its encoding: %v", k, a)
		}
		if hit := ok200(t, url+"/v1/knn?x=4.5&y=4.5&z=0.5&k="+k); !bytes.Equal(hit, bodies[k]) {
			t.Fatalf("k=%s: hit %s, miss %s", k, hit, bodies[k])
		}
		var rep QueryResponse
		if err := json.Unmarshal(bodies[k], &rep); err != nil || k != strconv.Itoa(rep.Count) {
			t.Fatalf("k=%s: %v count %d", k, err, rep.Count)
		}
	}
	ctx, p := context.Background(), geom.V(4.5, 4.5, 0.5)
	s3, s5 := Store{st}.KNN(ctx, p, 3).Encoding, Store{st}.KNN(ctx, p, 5).Encoding
	if s3 == s5 || bytes.Equal(s3.Load(), s5.Load()) {
		t.Fatalf("k=3 and k=5 share an encoding: %s", s3.Load())
	}
}

func TestDegradedReplyIsNeverStored(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st, url := cachedStore(t, 400)
	path := url + "/v1/range?minx=-1&miny=-1&minz=-1&maxx=11&maxy=41&maxz=2"
	faultinject.SetSeed(1)
	faultinject.Enable(serve.FaultShardVisit, faultinject.Spec{ErrRate: 1, Count: 1})
	var partial QueryResponse
	if err := json.Unmarshal(ok200(t, path), &partial); err != nil || !partial.Degraded || partial.Count >= 400 {
		t.Fatalf("want a degraded partial answer: %v %+v", err, partial.Detail)
	}
	faultinject.Reset()
	full := ok200(t, path)
	var rep QueryResponse
	if err := json.Unmarshal(full, &rep); err != nil || rep.Degraded || rep.Count != 400 {
		t.Fatalf("after the fault: %v degraded=%v count=%d", err, rep.Degraded, rep.Count)
	}
	if hit := ok200(t, path); !bytes.Equal(hit, full) {
		t.Fatalf("hit after the degraded reply differs from the clean one:\n%s\n%s", hit, full)
	}
	slot := Store{st}.Range(context.Background(), geom.NewAABB(geom.V(-1, -1, -1), geom.V(11, 41, 2))).Encoding
	if enc := slot.Load(); !bytes.Contains(full, enc) || bytes.Count(enc, []byte(`"id"`)) != 400 {
		t.Fatalf("stored encoding is not the clean answer's (%d items)", bytes.Count(enc, []byte(`"id"`)))
	}
}

func TestNewEpochEncodesItsOwnItems(t *testing.T) {
	st, url := cachedStore(t, 100)
	path := url + "/v1/range?" + box
	first := ok200(t, path)
	if hit := ok200(t, path); !bytes.Equal(hit, first) {
		t.Fatalf("epoch 1 hit differs from its miss")
	}
	moved := make([]serve.Update, 100)
	for i, it := range gridItems(100) {
		moved[i] = serve.Update{ID: it.ID, Box: geom.NewAABB(it.Box.Min.Add(geom.V(0, 0, 0.25)), it.Box.Max.Add(geom.V(0, 0, 0.25)))}
	}
	epoch := st.Apply(moved)
	for i := 0; i < 2; i++ { // the new epoch's miss, then its hit
		body := ok200(t, path)
		var rep QueryResponse
		if err := json.Unmarshal(body, &rep); err != nil || rep.Epoch != epoch || rep.Count == 0 {
			t.Fatalf("after the update: %v epoch %d (want %d) count %d", err, rep.Epoch, epoch, rep.Count)
		}
		for _, it := range rep.Items {
			if it.Min[2] != 0.25 {
				t.Fatalf("epoch %d served a stale item: %+v", rep.Epoch, it)
			}
		}
	}
}

func TestNonFiniteItemAnswers500OnEveryRequest(t *testing.T) {
	st, url := cachedStore(t, 10)
	st.Apply([]serve.Update{{ID: 77, Box: geom.NewAABB(geom.V(1, 0, 0), geom.V(math.Inf(1), 1, 1))}})
	for i := 0; i < 2; i++ { // the miss, then the cached repeat
		resp, body := get(t, url+"/v1/range?"+box)
		eb := wantError(t, "range over an infinite coordinate", resp, body, http.StatusInternalServerError, "internal")
		if !strings.Contains(eb.Message, "unsupported value: +Inf") {
			t.Fatalf("message %q", eb.Message)
		}
	}
}

// TestRangeHitAllocsFlat holds the cache-hit path to a constant number of
// allocations whatever the answer size: the body is a pooled buffer and the
// items are spliced, not encoded per item.
func TestRangeHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	st, err := serve.New(serve.Config{Shards: 2, Workers: 2, CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Bootstrap(gridItems(1000))
	api := New(Store{st}, obs.NewRegistry(), nil, 0)
	allocs := func(query string, want int) float64 {
		req := httptest.NewRequest(http.MethodGet, "/v1/range?"+query, nil)
		// A client id: generated ids cost one more allocation from 100 on.
		req.Header.Set("X-Request-Id", "allocs")
		w := &discardWriter{h: http.Header{}}
		api.ServeHTTP(w, req)
		var rep QueryResponse
		if err := json.Unmarshal(w.last, &rep); err != nil || rep.Count != want {
			t.Fatalf("%s: %v count %d, want %d", query, err, rep.Count, want)
		}
		return testing.AllocsPerRun(200, func() { api.ServeHTTP(w, req) })
	}
	small := allocs("minx=0.2&miny=0.2&minz=0.2&maxx=0.8&maxy=9.8&maxz=0.8", 10)
	large := allocs("minx=0.2&miny=0.2&minz=0.2&maxx=9.8&maxy=99.8&maxz=0.8", 1000)
	if small != large {
		t.Fatalf("cache-hit allocations grow with the answer: %v for 10 results, %v for 1000", small, large)
	}
}

// discardWriter is a ResponseWriter that keeps only the last body written,
// so measurements see the handler's own allocations.
type discardWriter struct {
	h    http.Header
	last []byte
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.last = append(w.last[:0], b...)
	return len(b), nil
}
