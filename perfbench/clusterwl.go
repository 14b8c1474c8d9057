package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/datagen"
	"spatialsim/internal/index"
	"spatialsim/internal/instrument"
	"spatialsim/internal/serve"
)

// timestep-cluster: every element moves each step (the paper's case) and
// the moved set is applied through the coordinator's two-phase publish,
// then analysts read the new epoch. Full rebuilds on every node plus the
// coordinator's scatter/gather, dedup and join carry the load; there is no
// HTTP, cache or disk.

type clusterSizes struct {
	elements, pool, readsPerStep int
	joinEps                      float64
}

func clusterSizesFor(tiny bool) clusterSizes {
	if tiny {
		return clusterSizes{elements: 3000, pool: 128, readsPerStep: 64, joinEps: 0.005}
	}
	return clusterSizes{elements: 100000, pool: 2048, readsPerStep: 4000, joinEps: 0.005}
}

const (
	clusterNodes       = 3
	clusterReplication = 2
	clusterReaders     = 2
	// clusterTraceEvery: a traced run traces one read in this many, and
	// times one other untraced for the tracing overhead.
	clusterTraceEvery = 8
)

// ctxKey carries a traced coordinator call's span into the node wrappers.
type ctxKey struct{}

type callInfo struct {
	span, req int64
	slowest   atomic.Int64 // ns of the slowest node query of this call
}

// clusterMeter is what the timing wrappers measure at the node boundary.
type clusterMeter struct {
	tr           *tracer
	mu           sync.Mutex
	stageSlowest time.Duration
	nodeFanout   int64
	nodeQueries  int64
	rangeNodeQs  int64
	counters     instrument.CounterSnapshot
}

// timedTransport wraps one cluster node: Stage and every node query through
// a pinned epoch are timed and recorded as spans in the benchmark's trace.
type timedTransport struct {
	inner cluster.Transport
	m     *clusterMeter
	step  *int64 // the step span new stages hang under
}

func (t *timedTransport) Name() string { return t.inner.Name() }

func (t *timedTransport) Stage(ctx context.Context, batch []serve.Update) (uint64, error) {
	t0 := time.Now()
	seq, err := t.inner.Stage(ctx, batch)
	t1 := time.Now()
	if t.m.tr != nil {
		t.m.tr.record(0, *t.step, 0, "serve.stage", t0, t1)
		t.m.mu.Lock()
		t.m.stageSlowest = max(t.m.stageSlowest, t1.Sub(t0))
		t.m.mu.Unlock()
	}
	return seq, err
}

func (t *timedTransport) Pin() (cluster.EpochRef, error) {
	ref, err := t.inner.Pin()
	if err != nil {
		return nil, err
	}
	return &timedRef{EpochRef: ref, m: t.m}, nil
}

type timedRef struct {
	cluster.EpochRef
	m *clusterMeter
}

func (r *timedRef) Query(req serve.Request) serve.Reply {
	ci, _ := req.Ctx.Value(ctxKey{}).(*callInfo)
	if ci == nil {
		return r.EpochRef.Query(req)
	}
	t0 := time.Now()
	rep := r.EpochRef.Query(req)
	t1 := time.Now()
	r.m.tr.record(0, ci.span, ci.req, "cluster.node_query", t0, t1)
	for d := int64(t1.Sub(t0)); ; {
		cur := ci.slowest.Load()
		if d <= cur || ci.slowest.CompareAndSwap(cur, d) {
			break
		}
	}
	r.m.mu.Lock()
	r.m.nodeQueries++
	r.m.nodeFanout += int64(rep.Plan.FanOut)
	if req.Op == serve.OpRange {
		r.m.rangeNodeQs++
		r.m.counters = r.m.counters.Add(rep.Counters)
	}
	r.m.mu.Unlock()
	return rep
}

// fleet is one coordinator over its node stores.
type fleet struct {
	coord  *cluster.Coordinator
	stores []*serve.Store
}

func (f *fleet) close() {
	f.coord.Close()
	for _, s := range f.stores {
		s.Close()
	}
}

type clusterAnswer struct {
	q    int
	ans  answer
	fail error
}

func runTimestepCluster(ctx context.Context, c config, r *report) error {
	sz := clusterSizesFor(c.tiny)
	rng := rand.New(rand.NewSource(c.seed))
	d := neurons(sz.elements, c.seed)
	move := datagen.NewPlasticityModel(c.seed + 1)
	items := itemsOf(d)
	g := newGrid(items)
	pool := queryPool(d, g, sz.pool, 40, rng)

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	m := &clusterMeter{tr: tr}
	var stepSpan int64

	first := pool[0]
	f, setupS, err := repeatSetup(3, func() (*fleet, time.Duration, error) {
		t0 := time.Now()
		f := &fleet{}
		var trs []cluster.Transport
		for i := 0; i < clusterNodes; i++ {
			st, err := serve.New(serve.Config{Shards: 4})
			if err != nil {
				return nil, 0, err
			}
			f.stores = append(f.stores, st)
			trs = append(trs, &timedTransport{inner: cluster.NewNode(fmt.Sprintf("n%d", i), st), m: m, step: &stepSpan})
		}
		coord, err := cluster.New(cluster.Config{Transports: trs, Replication: clusterReplication})
		if err != nil {
			return nil, 0, err
		}
		f.coord = coord
		if _, err := coord.Bootstrap(items); err != nil {
			f.close()
			return nil, 0, err
		}
		rep := coord.Range(ctx, first.box)
		if err := errors.Join(rep.Err, g.checkRange(first.box, compact(rep.Items))); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		return f, time.Since(t0), nil
	}, (*fleet).close)
	if err != nil {
		return err
	}
	defer f.close()
	r.e2e("setup_s", setupS, "s", "median of 3: node stores, coordinator, bootstrap, first correct answer")

	var (
		lat                                 latencies
		stepMS, joinMS, publishMS, execMS   []float64
		gatherMS, allocMB, mergeUS, visitUS []float64
		tracedUS, plainUS                   []float64
		fanout, failovers, hedges, reads    int64
		swaps, applies, firstPairs          int64
		active                              time.Duration
	)
	gc0 := gcCPU()
	rss := sampleRSS(os.Getpid())
	next := 0
	for step := 0; active < c.measure() || step == 0; step++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		move.Step(d)
		batch := make([]serve.Update, d.Len())
		for i := range d.Elements {
			batch[i] = serve.Update{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
		}

		// Write: one full move through the two-phase publish.
		var ms0 runtime.MemStats
		var swaps0 int64
		if tr != nil {
			runtime.ReadMemStats(&ms0)
			swaps0 = nodeSwaps(f.stores)
			stepSpan = tr.newID()
			m.stageSlowest = 0
		}
		t0 := time.Now()
		if _, err := f.coord.Apply(batch); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		t1 := time.Now()
		stepMS = append(stepMS, ms(t1.Sub(t0)))
		if tr != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			tr.record(stepSpan, 0, 0, "cluster.apply", t0, t1)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			publishMS = append(publishMS, ms(t1.Sub(t0)-m.stageSlowest))
			swaps += nodeSwaps(f.stores) - swaps0
			applies++
		}

		// Read: a closed-loop analysis batch from two goroutines.
		answers := make([]clusterAnswer, sz.readsPerStep)
		lats := make([]latencies, clusterReaders)
		var cursor atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		r0 := time.Now()
		for w := 0; w < clusterReaders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1) - 1)
					if i >= len(answers) {
						return
					}
					qi := (next + i) % len(pool)
					q := pool[qi]
					qctx := ctx
					var ci *callInfo
					traced := tr != nil && i%clusterTraceEvery == clusterTraceEvery/2
					plain := tr != nil && i%clusterTraceEvery == 0
					if traced {
						ci = &callInfo{span: tr.newID(), req: tr.newReq()}
						qctx = context.WithValue(ctx, ctxKey{}, ci)
					}
					s0 := time.Now()
					var rep cluster.Reply
					if q.knn {
						rep = f.coord.KNN(qctx, q.point, knnK)
					} else {
						rep = f.coord.Range(qctx, q.box)
					}
					s1 := time.Now()
					lats[w].add(q.knn, s1.Sub(s0))
					answers[i] = clusterAnswer{q: qi, ans: compact(rep.Items), fail: failure(rep.Err, rep.Degraded)}
					if tr == nil {
						continue
					}
					mu.Lock()
					fanout += int64(rep.FanOut)
					failovers += int64(rep.Failovers)
					hedges += int64(rep.Hedges)
					reads++
					if !q.knn && traced {
						tracedUS = append(tracedUS, us(s1.Sub(s0)))
					} else if !q.knn && plain {
						plainUS = append(plainUS, us(s1.Sub(s0)))
					}
					if traced {
						name := "cluster.range"
						if q.knn {
							name = "cluster.knn"
						}
						tr.record(ci.span, 0, ci.req, name, s0, s1)
						mergeUS = append(mergeUS, us(s1.Sub(s0))-float64(ci.slowest.Load())/1e3)
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		r1 := time.Now()
		next += len(answers)
		for i := range lats {
			lat.merge(&lats[i])
		}

		// One eps self-join per step over the new epoch.
		j0 := time.Now()
		jrep := f.coord.Join(ctx, serve.JoinRequest{Eps: sz.joinEps})
		j1 := time.Now()
		joinMS = append(joinMS, ms(j1.Sub(j0)))
		execMS = append(execMS, ms(jrep.JoinStats.Elapsed))
		gatherMS = append(gatherMS, ms(j1.Sub(j0)-jrep.JoinStats.Elapsed))
		if tr != nil {
			id := tr.record(0, 0, 0, "cluster.join", j0, j1)
			tr.record(0, id, 0, "join.exec", j1.Add(-jrep.JoinStats.Elapsed), j1)
			// Epoch visit on node 0 over the same boxes: pin, visit, release.
			for i := 0; i < min(len(answers), 64); i++ {
				q := pool[(next+i)%len(pool)]
				if q.knn {
					continue
				}
				v0 := time.Now()
				e := f.stores[0].AcquireEpoch()
				e.RangeVisit(q.box, func(index.Item) bool { return true })
				f.stores[0].ReleaseEpoch(e)
				visitUS = append(visitUS, us(time.Since(v0)))
			}
		}
		active += t1.Sub(t0) + r1.Sub(r0) + j1.Sub(j0)

		// The oracle checks this step's answers outside the timed window.
		sg := newGrid(itemsOf(d))
		for _, a := range answers {
			r.check(sg, pool[a.q], a.ans, a.fail)
		}
		if fail := failure(jrep.Err, jrep.Degraded); fail != nil {
			r.verdict(fail, true)
		} else {
			r.verdict(checkJoin(sg, sz.joinEps, jrep), false)
		}
		if step == 0 {
			firstPairs = int64(len(jrep.Pairs))
		}
	}
	gcFrac := gcCPU().since(gc0)
	if err := rss.finish(r, "benchmark process (the cluster is in process)"); err != nil {
		return err
	}

	r.e2e("step_ms", median(stepMS), "ms", countBase(len(stepMS), "Coordinator.Apply of a full move")+fmt.Sprintf(" of %d elements", d.Len()))
	r.e2e("join_ms", median(joinMS), "ms", countBase(len(joinMS), fmt.Sprintf("cluster self-joins, eps %g", sz.joinEps)))
	lat.report(r)
	if tr != nil {
		f := fmt.Sprintf
		r.layer("serve.stage_ms", median(tr.durations("serve.stage"))/1e3, "ms", countBase(len(tr.durations("serve.stage")), "node Stage calls, median"))
		r.layer("cluster.publish_ms", median(publishMS), "ms", countBase(len(publishMS), "applies: Apply minus slowest Stage, median"))
		r.layer("serve.alloc_mb_per_apply", median(allocMB), "MB", countBase(len(allocMB), "applies: TotalAlloc delta, median"))
		r.layer("serve.swaps_per_batch", float64(swaps)/float64(max(applies, 1)), "count", f("%d node epoch swaps / %d applies", swaps, applies))
		r.layer("cluster.fanout", float64(fanout)/float64(max(reads, 1)), "count", f("mean Reply.FanOut over %d reads", reads))
		r.layer("cluster.failovers", float64(failovers), "count", f("over %d reads", reads))
		r.layer("cluster.hedges", float64(hedges), "count", f("over %d reads", reads))
		nq := tr.durations("cluster.node_query")
		r.layer("cluster.node_query_us", median(nq), "us", countBase(len(nq), "EpochRef.Query through the wrapper, median"))
		r.layer("serve.query_us", median(nq), "us", countBase(len(nq), "node store queries (QueryPinned), median"))
		r.layer("cluster.merge_us", median(mergeUS), "us", countBase(len(mergeUS), "traced reads: call minus slowest node query, median"))
		r.layer("serve.epoch_visit_us", median(visitUS), "us", countBase(len(visitUS), "AcquireEpoch+RangeVisit on node 0, median"))
		r.layer("serve.fanout", float64(m.nodeFanout)/float64(max(m.nodeQueries, 1)), "count", f("mean node Reply.Plan.FanOut over %d node queries", m.nodeQueries))
		r.layer("rtree.node_visits_per_query", float64(m.counters.NodeVisits)/float64(max(m.rangeNodeQs, 1)), "count", f("%d node visits / %d node range queries", m.counters.NodeVisits, m.rangeNodeQs))
		r.layer("rtree.results_per_elem_test", float64(m.counters.Results)/float64(max(m.counters.ElemIntersectTests, 1)), "ratio", f("%d results / %d element tests", m.counters.Results, m.counters.ElemIntersectTests))
		r.layer("join.exec_ms", median(execMS), "ms", countBase(len(execMS), "JoinStats.Elapsed, median"))
		r.layer("join.gather_ms", median(gatherMS), "ms", countBase(len(gatherMS), "Coordinator.Join minus exec, median"))
		r.layer("join.pairs", float64(firstPairs), "count", "pairs of the first step's join (exact for a seed)")
		r.layer("go.gc_cpu_frac", gcFrac, "ratio", "GC CPU over total CPU, measured window")
		r.layer("trace.overhead_us", median(tracedUS)-median(plainUS), "us", f("range p50 traced (n=%d) minus untraced (n=%d), interleaved one in %d each", len(tracedUS), len(plainUS), clusterTraceEvery))
		if err := tr.writeJSONL(filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))); err != nil {
			return err
		}
	}
	return nil
}

func nodeSwaps(stores []*serve.Store) int64 {
	var n int64
	for _, s := range stores {
		n += s.Stats().EpochSwaps
	}
	return n
}

// checkJoin compares a cluster join with the reference pair set (count and
// an order-independent fingerprint).
func checkJoin(g *grid, eps float64, rep cluster.Reply) error {
	count, fp := g.selfJoin(eps)
	var got uint64
	for _, p := range rep.Pairs {
		got += pairHash(p.A, p.B)
	}
	if int64(len(rep.Pairs)) != count || got != fp {
		return fmt.Errorf("join eps %g: %d pairs, want %d (fingerprint match %t)", eps, len(rep.Pairs), count, got == fp)
	}
	return nil
}
