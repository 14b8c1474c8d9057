package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"spatialsim/internal/datagen"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/persist"
	"spatialsim/internal/serve"
)

// ingest-durable: one writer applies small, spatially local batches to a
// durable store while one reader queries it back to back, then the data dir
// is reopened. Every tiny batch still rebuilds the whole epoch and
// snapshots it; read latency shows the CPU contention; the reopen measures
// recovery.

type ingestSizes struct {
	elements, pool, batch int
}

func ingestSizesFor(tiny bool) ingestSizes {
	if tiny {
		return ingestSizes{elements: 3000, pool: 128, batch: 20}
	}
	return ingestSizes{elements: 50000, pool: 512, batch: 100}
}

const (
	reopens = 3
	// ingestTraceEvery: a traced run traces one read in this many, and
	// times one other untraced for the tracing overhead.
	ingestTraceEvery = 16
	// updateBytes is the user payload of one update: an ID and a box.
	updateBytes = 8 + 6*8
)

// world is the benchmark's copy of the durable store's content: every live
// element by ID, and the live IDs of each neuron.
type world struct {
	elems    map[int64]datagen.Element
	byNeuron [][]int64
	neuronOf map[int64]int
	centroid []geom.Vec3
	universe geom.AABB
	nextID   int64
}

func newWorld(d *datagen.Dataset, perNeuron int) *world {
	w := &world{elems: make(map[int64]datagen.Element, d.Len()), neuronOf: make(map[int64]int, d.Len()), universe: d.Universe}
	for _, e := range d.Elements {
		k := int(e.ID) / perNeuron
		for len(w.byNeuron) <= k {
			w.byNeuron = append(w.byNeuron, nil)
			w.centroid = append(w.centroid, geom.Vec3{})
		}
		w.elems[e.ID] = e
		w.byNeuron[k] = append(w.byNeuron[k], e.ID)
		w.neuronOf[e.ID] = k
		w.centroid[k] = w.centroid[k].Add(e.Position)
		w.nextID = max(w.nextID, e.ID+1)
	}
	for k := range w.centroid {
		w.centroid[k] = w.centroid[k].Scale(1 / float64(max(len(w.byNeuron[k]), 1)))
	}
	return w
}

// nextBatch draws one spatially local batch: ~n updates among the segments
// of a random neuron and its two nearest neighbours, moved by the plasticity
// model, with ~3% deletes and ~3% new-ID inserts. It applies the batch to w.
func (w *world) nextBatch(rng *rand.Rand, move *datagen.PlasticityModel, n int) []serve.Update {
	k := rng.Intn(len(w.byNeuron))
	near := []int{k}
	for len(near) < 3 && len(near) < len(w.byNeuron) {
		best, bestD := -1, 0.0
		for j := range w.byNeuron {
			if containsInt(near, j) {
				continue
			}
			if d := w.centroid[k].Sub(w.centroid[j]).Len(); best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		near = append(near, best)
	}
	picked := map[int64]bool{}
	var moved datagen.Dataset
	moved.Universe = w.universe
	var batch []serve.Update
	for tries := 0; len(picked) < n && tries < 10*n; tries++ {
		ids := w.byNeuron[near[rng.Intn(len(near))]]
		if len(ids) == 0 {
			continue
		}
		id := ids[rng.Intn(len(ids))]
		if picked[id] {
			continue
		}
		picked[id] = true
		switch x := rng.Float64(); {
		case x < 0.03:
			w.remove(id)
			batch = append(batch, serve.Update{ID: id, Delete: true})
		case x < 0.06:
			e := w.elems[id]
			e.ID = w.nextID
			w.nextID++
			moved.Elements = append(moved.Elements, e)
		default:
			moved.Elements = append(moved.Elements, w.elems[id])
		}
	}
	move.Step(&moved)
	for _, e := range moved.Elements {
		w.put(e, near[0])
		batch = append(batch, serve.Update{ID: e.ID, Box: e.Box})
	}
	return batch
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func (w *world) remove(id int64) {
	delete(w.elems, id)
	k := w.neuronOf[id]
	delete(w.neuronOf, id)
	ids := w.byNeuron[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			w.byNeuron[k] = ids[:len(ids)-1]
			break
		}
	}
}

// put stores e; a new ID joins neuron k.
func (w *world) put(e datagen.Element, k int) {
	if _, ok := w.elems[e.ID]; !ok {
		w.byNeuron[k] = append(w.byNeuron[k], e.ID)
		w.neuronOf[e.ID] = k
	}
	w.elems[e.ID] = e
}

// durable is one open durable store.
type durable struct {
	ps *persist.Store
	st *serve.Store
}

func openDurable(dir string) (*durable, error) {
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	// One build worker leaves the reader a processor on a 2-CPU machine:
	// with a build on every processor the reader's median flips between
	// runs (78–314 µs over four seeds) on whether it waited for one.
	st, err := serve.Open(serve.Config{Persist: ps, Workers: 1})
	if err != nil {
		ps.Close()
		return nil, err
	}
	return &durable{ps: ps, st: st}, nil
}

func (d *durable) close() error {
	d.st.Close()
	return d.ps.Close()
}

func runIngestDurable(ctx context.Context, c config, r *report) error {
	sz := ingestSizesFor(c.tiny)
	rng := rand.New(rand.NewSource(c.seed))
	data := neurons(sz.elements, c.seed)
	items := itemsOf(data)
	g := newGrid(items)
	pool := queryPool(data, g, sz.pool, 40, rng)
	picks := make([]int, 1<<16)
	for i := range picks {
		picks[i] = rng.Intn(len(pool))
	}
	dirBase := filepath.Join(c.outDir, fmt.Sprintf("ingest-seed%d", c.seed))
	if err := os.RemoveAll(dirBase); err != nil {
		return err
	}
	defer os.RemoveAll(dirBase)

	first := pool[0]
	n := 0
	var dir string
	db, setupS, err := repeatSetup(3, func() (*durable, time.Duration, error) {
		n++
		dir = filepath.Join(dirBase, strconv.Itoa(n))
		t0 := time.Now()
		db, err := openDurable(dir)
		if err != nil {
			return nil, 0, err
		}
		db.st.Bootstrap(items)
		rep := db.st.Query(serve.Request{Op: serve.OpRange, Query: first.box})
		if err := errors.Join(rep.Err, g.checkRange(first.box, compact(rep.Items))); err != nil {
			db.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		return db, time.Since(t0), nil
	}, func(db *durable) { _ = db.close() })
	if err != nil {
		return err
	}
	r.e2e("setup_s", setupS, "s", "median of 3: open a fresh data dir, bootstrap, first correct answer")

	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	w := newWorld(data, 1000)
	move := datagen.NewPlasticityModel(c.seed + 1)
	wrng := rand.New(rand.NewSource(c.seed + 2))
	e0 := db.st.Current().Seq()

	// Writer: closed loop of small batches until the reader is done.
	var (
		batches          [][]serve.Update
		seqs             []uint64
		applyMS, allocMB []float64
		stop             = make(chan struct{})
		writerDone       = make(chan struct{})
		updates          int64
	)
	ps0 := db.ps.Stats()
	st0 := db.st.Stats()
	io0, ioErr := procWriteBytes()
	gc0 := gcCPU()
	rss := sampleRSS(os.Getpid())
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := w.nextBatch(wrng, move, sz.batch)
			var m0 runtime.MemStats
			if tr != nil {
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			seq := db.st.Apply(batch)
			t1 := time.Now()
			if tr != nil {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
				tr.record(0, 0, 0, "serve.apply", t0, t1)
			}
			applyMS = append(applyMS, ms(t1.Sub(t0)))
			batches = append(batches, batch)
			seqs = append(seqs, seq)
			updates += int64(len(batch))
		}
	}()

	// Reader: one closed-loop client through Store.Query (a processor that
	// idles between reads measures its own wake-up more than the store).
	// Every answer is checked: the first to each query on each epoch is
	// kept for the check after the window, and later ones must equal it.
	keep := newKeeper(pool)
	var lat latencies
	var queryUS, visitUS, tracedUS, plainUS []float64
	var fanout, traced, nodeVisits, elemTests, rtResults, rangeQs int64
	end := time.Now().Add(c.measure())
	for i := 0; ctx.Err() == nil && time.Now().Before(end); i++ {
		qi := picks[i%len(picks)]
		q := pool[qi]
		req := serve.Request{Op: serve.OpRange, Query: q.box}
		if q.knn {
			req = serve.Request{Op: serve.OpKNN, Point: q.point, K: knnK}
		}
		t0 := time.Now()
		rep := db.st.Query(req)
		t1 := time.Now()
		lat.add(q.knn, t1.Sub(t0))
		if fail := failure(rep.Err, rep.Degraded); fail != nil {
			r.verdict(fail, true)
		} else if err := keep.offer(rep.Epoch, qi, answerTo(q, rep.Items)); err != nil {
			r.verdict(err, false)
		}
		if tr == nil {
			continue
		}
		switch i % ingestTraceEvery {
		case 0:
			if !q.knn {
				plainUS = append(plainUS, us(t1.Sub(t0)))
			}
			continue
		case ingestTraceEvery / 2:
		default:
			continue
		}
		// Traced: record the span and its counts, then time the epoch visit
		// alone on the same box.
		id := tr.record(0, 0, tr.newReq(), "serve.query", t0, t1)
		queryUS = append(queryUS, us(t1.Sub(t0)))
		fanout += int64(rep.Plan.FanOut)
		traced++
		if q.knn {
			continue
		}
		tracedUS = append(tracedUS, us(t1.Sub(t0)))
		rangeQs++
		nodeVisits += rep.Counters.NodeVisits
		elemTests += rep.Counters.ElemIntersectTests
		rtResults += rep.Counters.Results
		v0 := time.Now()
		e := db.st.AcquireEpoch()
		e.RangeVisit(q.box, func(index.Item) bool { return true })
		db.st.ReleaseEpoch(e)
		v1 := time.Now()
		tr.record(0, id, 0, "serve.epoch_visit", v0, v1)
		visitUS = append(visitUS, us(v1.Sub(v0)))
	}
	close(stop)
	<-writerDone
	gcFrac := gcCPU().since(gc0)
	if err := rss.finish(r, "benchmark process (the store is in process)"); err != nil {
		return err
	}
	io1, ioErr1 := procWriteBytes()
	ps1 := db.ps.Stats()
	st1 := db.st.Stats()
	if err := db.close(); err != nil {
		return err
	}

	lat.report(r)
	r.e2e("apply_p50_ms", percentile(applyMS, 50), "ms", countBase(len(applyMS), fmt.Sprintf("Apply calls of ~%d updates", sz.batch)))
	r.e2e("apply_p90_ms", percentile(applyMS, 90), "ms", countBase(len(applyMS), fmt.Sprintf("Apply calls of ~%d updates", sz.batch)))
	userBytes := updates * updateBytes
	if ioErr == nil && ioErr1 == nil {
		r.e2e("write_amp", float64(io1-io0)/float64(max(userBytes, 1)), "ratio",
			fmt.Sprintf("%d bytes written (/proc/self/io wchar) / %d user bytes (%d updates x %d B)", io1-io0, userBytes, updates, updateBytes))
	}

	// Check every read against the state of the epoch it was served from.
	final := verifyIngest(r, items, batches, seqs, e0, keep)

	// Reopen: recovery to the first correct answer, several times.
	fg := newGrid(final)
	var recoverMS, openMS, firstUS []float64
	for i := 0; i < reopens; i++ {
		t0 := time.Now()
		db, err := openDurable(dir)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		t1 := time.Now()
		rep := db.st.Query(serve.Request{Op: serve.OpRange, Query: first.box})
		t2 := time.Now()
		cerr := errors.Join(rep.Err, fg.checkRange(first.box, compact(rep.Items)))
		if err := db.close(); err != nil {
			return err
		}
		if cerr != nil {
			return fmt.Errorf("reopen: %w", cerr)
		}
		recoverMS = append(recoverMS, ms(t2.Sub(t0)))
		openMS = append(openMS, ms(t1.Sub(t0)))
		firstUS = append(firstUS, us(t2.Sub(t1)))
	}
	r.e2e("recover_ms", median(recoverMS), "ms", countBase(len(recoverMS), "reopens: serve.Open to first correct answer, median"))

	if tr != nil {
		f := fmt.Sprintf
		nb := int64(len(applyMS))
		r.layer("serve.query_us", median(queryUS), "us", countBase(len(queryUS), "Store.Query calls, median"))
		r.layer("serve.epoch_visit_us", median(visitUS), "us", countBase(len(visitUS), "AcquireEpoch+RangeVisit on the same boxes, median"))
		r.layer("serve.fanout", float64(fanout)/float64(max(traced, 1)), "count", f("mean Plan.FanOut over %d queries", traced))
		r.layer("serve.shed", float64(st1.Shed-st0.Shed), "count", f("over %d queries", traced))
		r.layer("rtree.node_visits_per_query", float64(nodeVisits)/float64(max(rangeQs, 1)), "count", f("%d node visits / %d range queries", nodeVisits, rangeQs))
		r.layer("rtree.results_per_elem_test", float64(rtResults)/float64(max(elemTests, 1)), "ratio", f("%d results / %d element tests", rtResults, elemTests))
		r.layer("serve.alloc_mb_per_apply", median(allocMB), "MB", countBase(len(allocMB), "applies: TotalAlloc delta, median"))
		r.layer("serve.swaps_per_batch", float64(st1.EpochSwaps-st0.EpochSwaps)/float64(max(nb, 1)), "count", f("%d epoch swaps / %d batches", st1.EpochSwaps-st0.EpochSwaps, nb))
		r.layer("go.gc_cpu_frac", gcFrac, "ratio", "GC CPU over total CPU, measured window")
		r.layer("persist.snapshots_per_batch", float64(ps1.SnapshotsSaved-ps0.SnapshotsSaved)/float64(max(nb, 1)), "ratio", f("%d snapshots / %d batches", ps1.SnapshotsSaved-ps0.SnapshotsSaved, nb))
		r.layer("persist.snapshot_bytes_per_update", float64(ps1.SnapshotBytes-ps0.SnapshotBytes)/float64(max(updates, 1)), "B", f("%d snapshot bytes / %d updates", ps1.SnapshotBytes-ps0.SnapshotBytes, updates))
		r.layer("persist.open_ms", median(openMS), "ms", countBase(len(openMS), "reopens: persist.Open+serve.Open, median"))
		r.layer("persist.first_query_us", median(firstUS), "us", countBase(len(firstUS), "reopens: first query, median"))
		r.layer("trace.overhead_us", median(tracedUS)-median(plainUS), "us",
			f("range p50 traced (n=%d) minus untraced (n=%d), interleaved one in %d each", len(tracedUS), len(plainUS), ingestTraceEvery))
		if err := tr.writeJSONL(filepath.Join(c.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))); err != nil {
			return err
		}
	}
	return nil
}

// verifyIngest replays the batches on a copy of the initial data and checks
// every kept read against the state of the epoch that served it. It returns
// the final item set.
func verifyIngest(r *report, initial []index.Item, batches [][]serve.Update, seqs []uint64, e0 uint64, keep *keeper) []index.Item {
	state := make(map[int64]geom.AABB, len(initial))
	for _, it := range initial {
		state[it.ID] = it.Box
	}
	snapshot := func() []index.Item {
		out := make([]index.Item, 0, len(state))
		for id, b := range state {
			out = append(out, index.Item{ID: id, Box: b})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	check := func(epoch uint64) {
		if _, ok := keep.epochs[epoch]; ok {
			keep.check(epoch, newGrid(snapshot()), r)
		}
	}
	check(e0)
	for i, b := range batches {
		for _, u := range b {
			if u.Delete {
				delete(state, u.ID)
			} else {
				state[u.ID] = u.Box
			}
		}
		if i+1 < len(seqs) && seqs[i+1] == seqs[i] {
			continue // coalesced into the next batch's epoch
		}
		check(seqs[i])
	}
	for epoch, t := range keep.epochs {
		for _, s := range t {
			r.verdicts(fmt.Errorf("read served from epoch %d, which no batch published", epoch), false, s.n)
		}
	}
	return snapshot()
}

// procWriteBytes is the bytes this process has passed to write(2) so far.
func procWriteBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("wchar not found in /proc/self/io")
}
