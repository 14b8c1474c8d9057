package serve

// Cache-correctness tests: the epoch result cache must never serve a stale
// epoch's answer after a swap (each epoch owns its map; retirement drops it
// wholesale), coalesced waiters must all receive the owner's result, and the
// accounting must add up.

import (
	"reflect"
	"sync"
	"testing"

	"spatialsim/internal/faultinject"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

func TestCacheCorrectAcrossEpochSwaps(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 64})
	defer s.Close()

	const n = 400
	s.Bootstrap(genItems(n, 0))
	universe := geom.NewAABB(geom.V(-1, -1, -100), geom.V(40, 40, 100))

	r1 := s.Query(Request{Op: OpRange, Query: universe})
	if r1.Plan.CacheHit || len(r1.Items) != n {
		t.Fatalf("cold query: hit=%v items=%d", r1.Plan.CacheHit, len(r1.Items))
	}
	r2 := s.Query(Request{Op: OpRange, Query: universe})
	if !r2.Plan.CacheHit {
		t.Fatal("identical repeat must hit the cache")
	}
	if !reflect.DeepEqual(sortedIDs(r1.Items), sortedIDs(r2.Items)) {
		t.Fatal("cache hit returned different items")
	}

	// Swap epochs through several generations; the same query must always
	// answer from the current generation — z encodes the generation, so one
	// stale cached item is immediately visible.
	for gen := 1; gen <= 3; gen++ {
		s.Apply(genUpdates(n, gen))
		r := s.Query(Request{Op: OpRange, Query: universe})
		if r.Plan.CacheHit {
			t.Fatalf("gen %d: first query on a fresh epoch cannot hit", gen)
		}
		if len(r.Items) != n {
			t.Fatalf("gen %d: %d items, want %d", gen, len(r.Items), n)
		}
		wantZ := 4 * float64(gen)
		for _, it := range r.Items {
			if it.Box.Min.Z != wantZ {
				t.Fatalf("gen %d: stale item %d with z=%v (want %v) — cache leaked across epochs", gen, it.ID, it.Box.Min.Z, wantZ)
			}
		}
		again := s.Query(Request{Op: OpRange, Query: universe})
		if !again.Plan.CacheHit {
			t.Fatalf("gen %d: repeat must hit the new epoch's cache", gen)
		}
		for _, it := range again.Items {
			if it.Box.Min.Z != wantZ {
				t.Fatalf("gen %d: cached hit served stale z=%v", gen, it.Box.Min.Z)
			}
		}
	}

	st := s.Stats()
	if st.Cache == nil {
		t.Fatal("cache stats missing")
	}
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", st.Cache)
	}
}

func TestCacheHitDoesNotAliasCallerBuffers(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, CacheEntries: 16})
	defer s.Close()
	s.Bootstrap(genItems(50, 0))
	q := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 10))

	first, _ := s.RangeAll(q, nil)
	// Mutating the returned slice must not poison later cache hits.
	for i := range first {
		first[i].ID = -999
	}
	second, _ := s.RangeAll(q, nil)
	for _, it := range second {
		if it.ID == -999 {
			t.Fatal("cache entry aliased a caller-visible buffer")
		}
	}
}

func TestCacheCoalescingUnderConcurrency(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 64})
	defer s.Close()
	const n = 500
	s.Bootstrap(genItems(n, 0))
	q := geom.NewAABB(geom.V(-1, -1, -100), geom.V(40, 40, 100))

	const readers = 16
	results := make([][]int64, readers)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			items, _ := s.RangeAll(q, nil)
			results[g] = sortedIDs(items)
		}(g)
	}
	start.Done()
	wg.Wait()

	for g := 1; g < readers; g++ {
		if !reflect.DeepEqual(results[0], results[g]) {
			t.Fatalf("reader %d got a different answer under coalescing", g)
		}
	}
	if len(results[0]) != n {
		t.Fatalf("readers saw %d items, want %d", len(results[0]), n)
	}
	st := s.Stats()
	if st.Cache == nil || st.Cache.Hits+st.Cache.Coalesced+st.Cache.Misses != readers {
		t.Fatalf("cache accounting must cover every request: %+v", st.Cache)
	}
	if st.Cache.Misses < 1 {
		t.Fatalf("exactly the owners should miss: %+v", st.Cache)
	}
}

func TestCacheEvictionIsBounded(t *testing.T) {
	const capacity = 8
	s := mustNew(t, Config{Shards: 2, Workers: 2, CacheEntries: capacity})
	defer s.Close()
	s.Bootstrap(genItems(100, 0))

	for i := 0; i < 50; i++ {
		f := float64(i)
		q := geom.NewAABB(geom.V(f, f, -1), geom.V(f+2, f+2, 10))
		s.Query(Request{Op: OpRange, Query: q})
	}
	st := s.Stats()
	if st.Cache.Entries > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", st.Cache.Entries, capacity)
	}
	// Evicted keys re-miss and still answer correctly.
	q0 := geom.NewAABB(geom.V(0, 0, -1), geom.V(2, 2, 10))
	r := s.Query(Request{Op: OpRange, Query: q0})
	ref := make([]index.Item, 0, 8)
	e := s.Current()
	e.RangeVisit(q0, func(it index.Item) bool { ref = append(ref, it); return true })
	if !reflect.DeepEqual(sortedIDs(r.Items), sortedIDs(ref)) {
		t.Fatal("post-eviction answer diverged from the epoch")
	}
}

func TestStreamingRangeBypassesCache(t *testing.T) {
	s := mustNew(t, Config{Shards: 2, Workers: 2, CacheEntries: 16})
	defer s.Close()
	s.Bootstrap(genItems(100, 0))
	q := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 10))

	// Streaming with early stop must not poison the cache with a truncated
	// result set.
	seen := 0
	s.Range(q, func(index.Item) bool {
		seen++
		return seen < 3
	})
	r := s.Query(Request{Op: OpRange, Query: q})
	if r.Plan.CacheHit {
		t.Fatal("materialized query hit a cache entry a streaming query should never have created")
	}
	if len(r.Items) != 100 {
		t.Fatalf("got %d items, want 100 — truncated streaming result leaked into the cache", len(r.Items))
	}
}

// The encoding slot stands for exactly one clean cached result: a reply
// carries it only when its Items are that result, and each query key and
// each epoch has its own.
func TestEncodingSlotOnlyOnCleanCachedReplies(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, Workers: 2, CacheEntries: 16})
	defer s.Close()
	s.Bootstrap(genItems(400, 0))
	q := geom.NewAABB(geom.V(-1, -1, -1), geom.V(40, 40, 8))
	p := geom.V(5, 5, 0)

	miss := s.Query(Request{Op: OpRange, Query: q})
	hit := s.Query(Request{Op: OpRange, Query: q})
	if miss.Encoding == nil || hit.Encoding != miss.Encoding || !hit.Plan.CacheHit {
		t.Fatalf("miss and hit must share the entry's slot: %p %p", miss.Encoding, hit.Encoding)
	}
	if r := s.Query(Request{Op: OpRange, Query: q, Buf: make([]index.Item, 1)}); r.Encoding != nil {
		t.Fatal("a reply extending a non-empty Buf carries the slot")
	}
	if r := s.Query(Request{Op: OpRange, Query: q, NoCache: true}); r.Encoding != nil {
		t.Fatal("an uncached reply carries a slot")
	}
	k3, k5 := s.Query(Request{Op: OpKNN, Point: p, K: 3}), s.Query(Request{Op: OpKNN, Point: p, K: 5})
	if k3.Encoding == nil || k5.Encoding == nil || k3.Encoding == k5.Encoding {
		t.Fatalf("kNN k=3 and k=5 need their own slots: %p %p", k3.Encoding, k5.Encoding)
	}

	degradedQ := geom.NewAABB(geom.V(-2, -2, -2), geom.V(40, 40, 8))
	armShardFault(t, faultinject.Spec{ErrRate: 1, Count: 1})
	if r := s.Query(Request{Op: OpRange, Query: degradedQ}); !r.Degraded || r.Encoding != nil {
		t.Fatalf("degraded=%v slot=%p: a degraded reply must carry no slot", r.Degraded, r.Encoding)
	}
	faultinject.Reset()
	if r := s.Query(Request{Op: OpRange, Query: degradedQ}); r.Degraded || r.Plan.CacheHit || r.Encoding == nil {
		t.Fatalf("after the fault: degraded=%v hit=%v slot=%p, want a fresh clean entry", r.Degraded, r.Plan.CacheHit, r.Encoding)
	}

	miss.Encoding.Store([]byte("epoch 1"))
	miss.Encoding.Store([]byte("second store"))
	if got := string(hit.Encoding.Load()); got != "epoch 1" {
		t.Fatalf("slot holds %q: the first store must win", got)
	}
	s.Apply(genUpdates(400, 1))
	next := s.Query(Request{Op: OpRange, Query: q})
	if next.Encoding == nil || next.Encoding == miss.Encoding || next.Encoding.Load() != nil {
		t.Fatal("a new epoch must start with its own empty slot")
	}
}
