package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spatialsim/internal/exec"
	"spatialsim/internal/geom"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/obs"
	"spatialsim/internal/serve"
)

// ErrUnavailable is the coordinator's zero-progress failure: every node that
// could have answered is down or failing, so there is no partial result to
// degrade to.
var ErrUnavailable = errors.New("cluster: no node available")

// worldExtent bounds the universe box the join gather scans (finite so MBR
// intersection arithmetic stays exact).
const worldExtent = 1e17

// Config configures a Coordinator.
type Config struct {
	// Transports are the cluster's nodes, in placement order.
	Transports []Transport
	// Replication is how many nodes own each tile (clamped to [1, nodes]).
	// With replication 1 a node failure degrades reads over its tile; with 2+
	// reads fail over to replicas and stay complete.
	Replication int
	// HedgeAfter fires replica queries for still-unresolved tiles when the
	// primary fan-out has not completed within this delay (0 disables
	// hedging; failover on hard errors is always on).
	HedgeAfter time.Duration
	// Workers is the goroutine budget of coordinator-side merges (the
	// cluster join); <= 0 uses GOMAXPROCS.
	Workers int
	// Metrics registers the spatial_cluster_* series on the given registry
	// (nil disables).
	Metrics *obs.Registry
}

// NodeError is the per-node failure detail of a degraded cluster Reply.
type NodeError struct {
	Node string `json:"node"`
	Err  string `json:"error"`
}

// Reply is the outcome of one coordinator read.
type Reply struct {
	// Epoch is the cluster epoch the read observed (consistent across every
	// node touched).
	Epoch uint64 `json:"epoch"`
	// Items holds range results (sorted by ID — the canonical merge order)
	// or kNN results (sorted by distance, ties by ID).
	Items []index.Item `json:"-"`
	// Pairs, JoinAlgo and JoinStats hold the cluster join outcome.
	Pairs     []join.Pair    `json:"-"`
	JoinAlgo  join.Algorithm `json:"-"`
	JoinStats exec.JoinStats `json:"-"`
	// FanOut counts node queries issued (including hedges and failovers);
	// Hedges and Failovers break out the retries.
	FanOut    int `json:"fan_out"`
	Hedges    int `json:"hedges"`
	Failovers int `json:"failovers"`
	// Degraded marks a partial result: some tile's owners all failed, so
	// that tile's items are missing — the reply carries what the surviving
	// nodes produced (never wrong items, possibly fewer). NodeErrors holds
	// the per-node detail.
	Degraded   bool        `json:"degraded,omitempty"`
	NodeErrors []NodeError `json:"node_errors,omitempty"`
	// Err is set on zero progress: ErrUnavailable (every owner down),
	// serve.ErrDeadline / context errors (the deadline died first), or
	// ErrNotBootstrapped.
	Err error `json:"-"`
}

// viewNode is one node's slice of a cluster view.
type viewNode struct {
	Ref EpochRef
}

// View is one published cluster generation: the cluster epoch number plus a
// pinned epoch ref per node. Readers pin the view (refcount, same discipline
// as serve.Epoch) so a concurrent publish never tears a read; the superseded
// view releases its node pins when its last reader drains.
type View struct {
	Epoch uint64
	Nodes []viewNode

	pins       atomic.Int64
	superseded atomic.Bool
	retireOnce atomic.Bool
}

// Coordinator is the scatter/gather front of a node fleet: it owns the
// placement, publishes epoch-consistent views in two phases, and merges
// node replies under the degraded-reply contract.
type Coordinator struct {
	cfg   Config
	nodes []Transport
	// place is written once (under applyMu, by the first Bootstrap) and read
	// by every concurrent scatter, hence the pointer swap.
	place atomic.Pointer[Placement]

	// applyMu serializes cluster writes (stage + publish is one critical
	// section; node stores coalesce under it as usual).
	applyMu sync.Mutex
	view    atomic.Pointer[View]

	queries    atomic.Int64
	fanouts    atomic.Int64
	hedges     atomic.Int64
	failovers  atomic.Int64
	degradedC  atomic.Int64
	swaps      atomic.Int64
	stageFails atomic.Int64

	queryLat *obs.Histogram
}

// New wires a coordinator over the given transports and publishes view 0
// (every node's current epoch, pinned). It fails if any node cannot be
// pinned — a cluster must start whole.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Transports) == 0 {
		return nil, errors.New("cluster: no transports")
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(cfg.Transports) {
		cfg.Replication = len(cfg.Transports)
	}
	c := &Coordinator{cfg: cfg, nodes: cfg.Transports}
	c.place.Store(&Placement{})
	v := &View{Epoch: 0, Nodes: make([]viewNode, len(c.nodes))}
	for i, tr := range c.nodes {
		ref, err := tr.Pin()
		if err != nil {
			for j := 0; j < i; j++ {
				v.Nodes[j].Ref.Release()
			}
			return nil, fmt.Errorf("cluster: pin %s: %w", tr.Name(), err)
		}
		v.Nodes[i] = viewNode{Ref: ref}
	}
	c.view.Store(v)
	c.initMetrics(cfg.Metrics)
	return c, nil
}

// Close retires the current view, releasing its node epoch pins once the
// last in-flight reader drains. Node stores are not closed — their owner
// does that after the coordinator.
func (c *Coordinator) Close() {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	v := c.view.Load()
	v.superseded.Store(true)
	c.maybeRetireView(v)
}

// Placement returns the cluster's tile map (zero value before Bootstrap).
func (c *Coordinator) Placement() Placement { return *c.place.Load() }

// Epoch returns the current cluster epoch.
func (c *Coordinator) Epoch() uint64 { return c.view.Load().Epoch }

// acquireView pins the current view; the increment-then-recheck loop closes
// the race with a concurrent publish exactly like serve.Store.acquire.
func (c *Coordinator) acquireView() *View {
	for {
		v := c.view.Load()
		v.pins.Add(1)
		if c.view.Load() == v {
			return v
		}
		c.releaseView(v)
	}
}

func (c *Coordinator) releaseView(v *View) {
	if v.pins.Add(-1) == 0 {
		c.maybeRetireView(v)
	}
}

// maybeRetireView releases a drained, superseded view's node pins exactly
// once (the EpochRef double-release panic backs the exactly-once claim).
func (c *Coordinator) maybeRetireView(v *View) {
	if v.pins.Load() == 0 && v.superseded.Load() && v.retireOnce.CompareAndSwap(false, true) {
		for i := range v.Nodes {
			if v.Nodes[i].Ref != nil {
				v.Nodes[i].Ref.Release()
			}
		}
	}
}

// Bootstrap computes the placement from the initial dataset (first call
// only) and publishes cluster epoch 1 containing it.
func (c *Coordinator) Bootstrap(items []index.Item) (uint64, error) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if len(c.place.Load().tiles) == 0 {
		p := NewPlacement(items, len(c.nodes), c.cfg.Replication)
		c.place.Store(&p)
	}
	batch := make([]serve.Update, len(items))
	for i, it := range items {
		batch[i] = serve.Update{ID: it.ID, Box: it.Box}
	}
	return c.applyLocked(context.Background(), batch)
}

// Apply stages one update batch on every node and publishes the next cluster
// epoch, two-phase: readers keep answering from the current view until every
// node acked its stage, and a stage failure aborts with the current view
// intact (the staged node-local epochs stay invisible to cluster reads; a
// retry re-stages the same batch idempotently).
func (c *Coordinator) Apply(batch []serve.Update) (uint64, error) {
	return c.ApplyCtx(context.Background(), batch)
}

// ApplyCtx is Apply with the caller's context threaded through to the node
// stages (tracing; staging is not cancelled midway — publish still requires
// every ack).
func (c *Coordinator) ApplyCtx(ctx context.Context, batch []serve.Update) (uint64, error) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if len(c.place.Load().tiles) == 0 {
		return 0, ErrNotBootstrapped
	}
	return c.applyLocked(ctx, batch)
}

// applyLocked routes, stages (phase 1) and publishes (phase 2). Caller holds
// applyMu.
func (c *Coordinator) applyLocked(ctx context.Context, batch []serve.Update) (uint64, error) {
	n := len(c.nodes)
	per := c.routeBatch(batch)
	cur := c.view.Load()
	next := cur.Epoch + 1

	// Phase 1: stage the routed sub-batches on every node in parallel. Each
	// node's local epoch advances, but cluster readers still read through
	// the current view's pinned refs — staged state is invisible until
	// publish.
	span := obs.SpanFromContext(ctx).Child("cluster_stage")
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range c.nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.nodes[i].Stage(ctx, per[i])
		}(i)
	}
	wg.Wait()
	span.End()
	for i, err := range errs {
		if err != nil {
			c.stageFails.Add(1)
			return 0, fmt.Errorf("cluster: epoch %d stage on %s failed, swap aborted (readers stay on epoch %d): %w",
				next, c.nodes[i].Name(), cur.Epoch, err)
		}
	}

	// Phase 2: all acked — pin every node's new epoch into a fresh view and
	// swap atomically. A pin failure (node died between ack and publish)
	// aborts the same way: the old view stays current and consistent.
	ps := obs.SpanFromContext(ctx).Child("cluster_publish")
	nv := &View{Epoch: next, Nodes: make([]viewNode, n)}
	for i, tr := range c.nodes {
		ref, err := tr.Pin()
		if err != nil {
			for j := 0; j < i; j++ {
				nv.Nodes[j].Ref.Release()
			}
			ps.End()
			c.stageFails.Add(1)
			return 0, fmt.Errorf("cluster: epoch %d publish pin on %s failed, swap aborted: %w", next, tr.Name(), err)
		}
		nv.Nodes[i] = viewNode{Ref: ref}
	}
	c.view.Store(nv)
	c.swaps.Add(1)
	cur.superseded.Store(true)
	c.maybeRetireView(cur)
	ps.End()
	return next, nil
}

// routeBatch splits a cluster batch into per-node sub-batches: an upsert
// lands on every owner of its routed tile and becomes a delete everywhere
// else (so an item that moved tiles vanishes from its old owners); a delete
// broadcasts to every node. Every node sees every batch — that is what keeps
// one cluster epoch aligned with exactly one local epoch per node.
func (c *Coordinator) routeBatch(batch []serve.Update) [][]serve.Update {
	n := len(c.nodes)
	place := c.place.Load()
	per := make([][]serve.Update, n)
	for i := range per {
		per[i] = make([]serve.Update, 0, len(batch))
	}
	for _, u := range batch {
		if u.Delete {
			for i := range per {
				per[i] = append(per[i], u)
			}
			continue
		}
		owners := place.tiles[place.Route(u.Box)].Owners
		for i := range per {
			owned := false
			for _, o := range owners {
				if o == i {
					owned = true
					break
				}
			}
			if owned {
				per[i] = append(per[i], u)
			} else {
				per[i] = append(per[i], serve.Update{ID: u.ID, Delete: true})
			}
		}
	}
	return per
}

// scatterOut is the raw outcome of one fan-out before merging.
type scatterOut struct {
	// success maps node index to a clean reply; partial to a degraded one
	// (its items are correct but incomplete — merged, never tile-resolving).
	success map[int]serve.Reply
	partial map[int]serve.Reply
	errs    []NodeError
	// unresolved counts tiles no owner answered for (pruned owners resolve a
	// tile too: a pruned node's whole replica has no matches).
	unresolved int
	fanout     int
	hedges     int
	failovers  int
}

func (o *scatterOut) progressed() bool { return len(o.success)+len(o.partial) > 0 }

// scatter fans a request out to tile owners through the view's pinned refs:
// primary owners first, hard failures (and degraded node replies) fail over
// to untried replica owners immediately, and — with hedging enabled — slow
// primaries trigger replica queries for their unresolved tiles after
// HedgeAfter. Returns as soon as every tile is resolved; stragglers drain in
// the background holding their own view pin.
func (c *Coordinator) scatter(ctx context.Context, v *View, q geom.AABB, prune bool, mkReq func() serve.Request) scatterOut {
	out := scatterOut{success: make(map[int]serve.Reply), partial: make(map[int]serve.Reply)}
	tiles := c.place.Load().tiles
	n := len(c.nodes)
	if len(tiles) == 0 {
		return out
	}

	pruned := make([]bool, n)
	if prune {
		for i := range pruned {
			pruned[i] = !q.Intersects(v.Nodes[i].Ref.Bounds())
		}
	}
	resolved := make([]bool, len(tiles))
	for t := range tiles {
		for _, o := range tiles[t].Owners {
			if pruned[o] {
				resolved[t] = true
				break
			}
		}
	}
	allResolved := func() bool {
		for t := range resolved {
			if !resolved[t] {
				return false
			}
		}
		return true
	}
	resolveOwner := func(i int) {
		for t := range tiles {
			if resolved[t] {
				continue
			}
			for _, o := range tiles[t].Owners {
				if o == i {
					resolved[t] = true
					break
				}
			}
		}
	}

	sp := obs.SpanFromContext(ctx).Child("cluster_fanout")
	defer func() {
		sp.Set("fan", out.fanout)
		sp.End()
	}()

	type res struct {
		idx int
		rep serve.Reply
	}
	ch := make(chan res, n) // each node queried at most once
	tried := make([]bool, n)
	inflight := 0
	launch := func(i int, kind string) {
		tried[i] = true
		inflight++
		out.fanout++
		ns := sp.Child("node_query")
		ns.Set("node", c.nodes[i].Name())
		if kind != "" {
			ns.Set(kind, true)
		}
		ref := v.Nodes[i].Ref
		req := mkReq()
		req.Ctx = ctx
		// The goroutine holds its own view pin: scatter may return (and the
		// caller release its pin) before a straggler finishes.
		v.pins.Add(1)
		go func() {
			defer c.releaseView(v)
			rep := ref.Query(req)
			if rep.Err != nil {
				ns.Set("error", rep.Err.Error())
			}
			ns.End()
			ch <- res{i, rep}
		}()
	}
	// nextTargets picks, per unresolved tile, its first untried un-pruned
	// owner — the failover/hedge frontier.
	nextTargets := func() []int {
		set := make(map[int]bool)
		for t := range tiles {
			if resolved[t] {
				continue
			}
			for _, o := range tiles[t].Owners {
				if !tried[o] && !pruned[o] {
					set[o] = true
					break
				}
			}
		}
		idxs := make([]int, 0, len(set))
		for i := range set {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		return idxs
	}

	for _, i := range nextTargets() {
		launch(i, "")
	}

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		tm := time.NewTimer(c.cfg.HedgeAfter)
		defer tm.Stop()
		hedgeC = tm.C
	}

	for inflight > 0 {
		select {
		case r := <-ch:
			inflight--
			switch {
			case r.rep.Err != nil:
				out.errs = append(out.errs, NodeError{Node: c.nodes[r.idx].Name(), Err: r.rep.Err.Error()})
				for _, i := range nextTargets() {
					out.failovers++
					launch(i, "failover")
				}
			case r.rep.Degraded:
				// Correct but incomplete: keep the items, record the
				// degradation, and still try replicas for full coverage.
				out.partial[r.idx] = r.rep
				out.errs = append(out.errs, NodeError{Node: c.nodes[r.idx].Name(), Err: degradedDetail(r.rep)})
				for _, i := range nextTargets() {
					out.failovers++
					launch(i, "failover")
				}
			default:
				out.success[r.idx] = r.rep
				resolveOwner(r.idx)
				if allResolved() {
					return out // stragglers drain via their own view pins
				}
			}
		case <-hedgeC:
			hedgeC = nil
			for _, i := range nextTargets() {
				out.hedges++
				launch(i, "hedge")
			}
		case <-ctx.Done():
			// Deadline died mid-fan-out: report what landed; stragglers will
			// fail fast on the same dead context.
			out.errs = append(out.errs, NodeError{Node: "-", Err: ctx.Err().Error()})
			for t := range resolved {
				if !resolved[t] {
					out.unresolved++
				}
			}
			return out
		}
	}
	for t := range resolved {
		if !resolved[t] {
			out.unresolved++
		}
	}
	return out
}

func degradedDetail(rep serve.Reply) string {
	if len(rep.ShardErrors) > 0 {
		return fmt.Sprintf("degraded reply (%d shard errors, first: %s)", len(rep.ShardErrors), rep.ShardErrors[0].Err)
	}
	return "degraded reply"
}

// finishScatter folds the fan-out outcome into rep: degraded when tiles went
// unresolved, failed when nothing contributed at all.
func (c *Coordinator) finishScatter(ctx context.Context, rep *Reply, out *scatterOut) {
	rep.FanOut = out.fanout
	rep.Hedges = out.hedges
	rep.Failovers = out.failovers
	rep.NodeErrors = out.errs
	if out.unresolved == 0 {
		return
	}
	if !out.progressed() {
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				rep.Err = serve.ErrDeadline
			} else {
				rep.Err = err
			}
			return
		}
		rep.Err = ErrUnavailable
		return
	}
	rep.Degraded = true
	c.degradedC.Add(1)
}

// mergeItems concatenates node results deduplicated by item ID (replica
// overlap and failover double-coverage collapse here), iterating nodes in
// index order for determinism.
func (o *scatterOut) mergeItems(n int) []index.Item {
	seen := make(map[int64]bool)
	var items []index.Item
	for i := 0; i < n; i++ {
		rep, ok := o.success[i]
		if !ok {
			rep, ok = o.partial[i]
		}
		if !ok {
			continue
		}
		for _, it := range rep.Items {
			if !seen[it.ID] {
				seen[it.ID] = true
				items = append(items, it)
			}
		}
	}
	return items
}

// Range scatters one range query to every tile owner whose epoch MBR
// intersects q and merges the surviving replies, sorted by item ID.
func (c *Coordinator) Range(ctx context.Context, q geom.AABB) Reply {
	if ctx == nil {
		ctx = context.Background()
	}
	c.queries.Add(1)
	t0 := time.Now()
	v := c.acquireView()
	defer c.releaseView(v)
	out := c.scatter(ctx, v, q, true, func() serve.Request {
		return serve.Request{Op: serve.OpRange, Query: q}
	})
	c.countScatter(&out)
	rep := Reply{Epoch: v.Epoch}
	c.finishScatter(ctx, &rep, &out)
	if rep.Err == nil {
		items := out.mergeItems(len(c.nodes))
		sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })
		rep.Items = items
	}
	c.observeLat(t0)
	return rep
}

// KNN scatters one kNN query to every tile owner (no MBR prune — nearness
// has no box) and merges the per-node top-k into the global top-k: the union
// of per-node candidates is a superset of the true answer as long as every
// tile had one owner contribute.
func (c *Coordinator) KNN(ctx context.Context, p geom.Vec3, k int) Reply {
	if ctx == nil {
		ctx = context.Background()
	}
	c.queries.Add(1)
	t0 := time.Now()
	v := c.acquireView()
	defer c.releaseView(v)
	out := c.scatter(ctx, v, geom.AABB{}, false, func() serve.Request {
		return serve.Request{Op: serve.OpKNN, Point: p, K: k}
	})
	c.countScatter(&out)
	rep := Reply{Epoch: v.Epoch}
	c.finishScatter(ctx, &rep, &out)
	if rep.Err == nil {
		items := out.mergeItems(len(c.nodes))
		sort.Slice(items, func(i, j int) bool {
			di, dj := items[i].Box.Distance2ToPoint(p), items[j].Box.Distance2ToPoint(p)
			if di != dj {
				return di < dj
			}
			return items[i].ID < items[j].ID
		})
		if len(items) > k {
			items = items[:k]
		}
		rep.Items = items
	}
	c.observeLat(t0)
	return rep
}

// Join runs a cluster-wide epsilon self-join: the epoch-consistent item set
// is gathered from the fleet (range scatter over the universe, deduplicated
// by ID, sorted for a deterministic planner input), then the join planner
// picks an algorithm and the parallel join engine executes at the
// coordinator — cross-node pairs fall out naturally because the join runs
// over the merged set.
func (c *Coordinator) Join(ctx context.Context, jr serve.JoinRequest) Reply {
	if ctx == nil {
		ctx = context.Background()
	}
	c.queries.Add(1)
	t0 := time.Now()
	v := c.acquireView()
	defer c.releaseView(v)
	universe := geom.NewAABB(geom.V(-worldExtent, -worldExtent, -worldExtent), geom.V(worldExtent, worldExtent, worldExtent))
	out := c.scatter(ctx, v, universe, true, func() serve.Request {
		return serve.Request{Op: serve.OpRange, Query: universe, Priority: serve.PriorityBackground}
	})
	c.countScatter(&out)
	rep := Reply{Epoch: v.Epoch}
	c.finishScatter(ctx, &rep, &out)
	if rep.Err != nil {
		c.observeLat(t0)
		return rep
	}
	items := out.mergeItems(len(c.nodes))
	sort.Slice(items, func(i, j int) bool { return items[i].ID < items[j].ID })

	var pl join.Planner
	var plan *join.Plan
	if jr.Force {
		plan = pl.PlanSelfWith(jr.Algo, items, join.Options{Eps: jr.Eps})
	} else {
		plan = pl.PlanSelf(items, join.Options{Eps: jr.Eps})
	}
	defer plan.Close()
	js := obs.SpanFromContext(ctx).Child("cluster_join_exec")
	workers := jr.Workers
	if workers <= 0 {
		workers = c.cfg.Workers
	}
	pairs, stats := exec.ParallelJoin(plan, exec.Options{Workers: workers, Ctx: ctx})
	if js != nil {
		js.Set("algorithm", plan.Algo().String())
		js.Set("pairs", len(pairs))
		js.End()
	}
	rep.Pairs = pairs
	rep.JoinAlgo = plan.Algo()
	rep.JoinStats = stats
	if stats.Cancelled {
		if len(pairs) == 0 {
			rep.Pairs = nil
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				rep.Err = serve.ErrDeadline
			} else {
				rep.Err = ctx.Err()
			}
		} else if !rep.Degraded {
			rep.Degraded = true
			c.degradedC.Add(1)
		}
	}
	c.observeLat(t0)
	return rep
}

func (c *Coordinator) countScatter(out *scatterOut) {
	c.fanouts.Add(int64(out.fanout))
	c.hedges.Add(int64(out.hedges))
	c.failovers.Add(int64(out.failovers))
}

func (c *Coordinator) observeLat(t0 time.Time) {
	if c.queryLat != nil {
		c.queryLat.Observe(time.Since(t0))
	}
}

// RetryAfterHint is the cluster's drain estimate for 503 responses: the
// longest admission-queue estimate among its in-process nodes' stores, and
// serve's 1s floor when no node is in-process.
func (c *Coordinator) RetryAfterHint() time.Duration {
	hint := time.Second
	for _, tr := range c.nodes {
		if n, ok := tr.(*Node); ok {
			hint = max(hint, n.Store().RetryAfterHint())
		}
	}
	return hint
}

// NodeStats is the per-node slice of a cluster Stats snapshot.
type NodeStats struct {
	Name string `json:"name"`
	Up   bool   `json:"up"`
	// Epoch is the node-local epoch pinned by the current view; Items its
	// item count.
	Epoch uint64 `json:"epoch"`
	Items int    `json:"items"`
}

// Stats is a point-in-time view of the coordinator's serving state.
type Stats struct {
	Epoch         uint64      `json:"epoch"`
	Nodes         []NodeStats `json:"nodes"`
	Tiles         int         `json:"tiles"`
	Replication   int         `json:"replication"`
	Queries       int64       `json:"queries"`
	Fanouts       int64       `json:"fanout_queries"`
	Hedges        int64       `json:"hedges"`
	Failovers     int64       `json:"failovers"`
	Degraded      int64       `json:"degraded"`
	Swaps         int64       `json:"epoch_swaps"`
	StageFailures int64       `json:"stage_failures"`
}

// Stats snapshots the coordinator counters and the current view's per-node
// state.
func (c *Coordinator) Stats() Stats {
	v := c.acquireView()
	defer c.releaseView(v)
	st := Stats{
		Epoch:         v.Epoch,
		Tiles:         len(c.place.Load().tiles),
		Replication:   c.cfg.Replication,
		Queries:       c.queries.Load(),
		Fanouts:       c.fanouts.Load(),
		Hedges:        c.hedges.Load(),
		Failovers:     c.failovers.Load(),
		Degraded:      c.degradedC.Load(),
		Swaps:         c.swaps.Load(),
		StageFailures: c.stageFails.Load(),
	}
	for i, tr := range c.nodes {
		ns := NodeStats{Name: tr.Name(), Up: true}
		if d, ok := tr.(interface{ Down() bool }); ok {
			ns.Up = !d.Down()
		}
		if ref := v.Nodes[i].Ref; ref != nil {
			ns.Epoch = ref.Seq()
			ns.Items = ref.Len()
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}
