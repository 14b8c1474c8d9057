package httpapi

import (
	"context"
	"time"

	"spatialsim/internal/cluster"
	"spatialsim/internal/geom"
	"spatialsim/internal/serve"
)

// Backend is what the front end serves: one serve.Store (Store) or the
// cluster coordinator (Cluster). Reads answer under the shared contract:
// complete, degraded (partial, with detail) or failed with Reply.Err.
type Backend interface {
	Range(ctx context.Context, q geom.AABB) Reply
	KNN(ctx context.Context, p geom.Vec3, k int) Reply
	Join(ctx context.Context, jr serve.JoinRequest) Reply
	Apply(ctx context.Context, batch []serve.Update) (uint64, error)
	Stats() any
	// RetryAfterHint is the drain estimate a 503 advertises as Retry-After.
	RetryAfterHint() time.Duration
}

// Reply is one backend read: the store's reply shape, plus the coordinator's
// fan-out accounting when the backend is a cluster.
type Reply struct {
	serve.Reply
	FanOut, Hedges, Failovers int
	NodeErrors                []cluster.NodeError
}

// Store serves a single sharded, epoch-versioned store.
type Store struct{ *serve.Store }

func (s Store) Range(ctx context.Context, q geom.AABB) Reply {
	return Reply{Reply: s.Query(serve.Request{Op: serve.OpRange, Query: q, Ctx: ctx})}
}

func (s Store) KNN(ctx context.Context, p geom.Vec3, k int) Reply {
	return Reply{Reply: s.Query(serve.Request{Op: serve.OpKNN, Point: p, K: k, Ctx: ctx})}
}

func (s Store) Join(ctx context.Context, jr serve.JoinRequest) Reply {
	return Reply{Reply: s.Query(serve.Request{Op: serve.OpJoin, Join: jr, Ctx: ctx})}
}

func (s Store) Apply(ctx context.Context, batch []serve.Update) (uint64, error) {
	return s.ApplyCtx(ctx, batch), nil
}

func (s Store) Stats() any { return s.Store.Stats() }

// Cluster serves the scatter/gather coordinator of a node fleet.
type Cluster struct{ *cluster.Coordinator }

func (c Cluster) Range(ctx context.Context, q geom.AABB) Reply {
	return fromCluster(c.Coordinator.Range(ctx, q))
}

func (c Cluster) KNN(ctx context.Context, p geom.Vec3, k int) Reply {
	return fromCluster(c.Coordinator.KNN(ctx, p, k))
}

func (c Cluster) Join(ctx context.Context, jr serve.JoinRequest) Reply {
	return fromCluster(c.Coordinator.Join(ctx, jr))
}

func (c Cluster) Apply(ctx context.Context, batch []serve.Update) (uint64, error) {
	return c.ApplyCtx(ctx, batch)
}

func (c Cluster) Stats() any { return c.Coordinator.Stats() }

func fromCluster(rep cluster.Reply) Reply {
	return Reply{
		Reply: serve.Reply{Epoch: rep.Epoch, Items: rep.Items, Pairs: rep.Pairs, JoinAlgo: rep.JoinAlgo,
			Degraded: rep.Degraded, Err: rep.Err},
		FanOut: rep.FanOut, Hedges: rep.Hedges, Failovers: rep.Failovers, NodeErrors: rep.NodeErrors,
	}
}
