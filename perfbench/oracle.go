package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"spatialsim/internal/geom"
	"spatialsim/internal/index"
)

// grid is the benchmark's own reference index: a uniform grid over its copy
// of the data, deliberately simpler than anything the system under test
// uses. Every answer the system gives is compared against it after the
// timed window. Not safe for concurrent use (the dedup stamps are shared).
type grid struct {
	lo    geom.Vec3
	cell  float64
	n     [3]int
	cells [][]int32
	items []index.Item
	byID  map[int64]geom.AABB
	stamp []uint32
	cur   uint32
}

func newGrid(items []index.Item) *grid {
	b := geom.EmptyAABB()
	for _, it := range items {
		b = b.Union(it.Box)
	}
	if len(items) == 0 {
		b = geom.NewAABB(geom.V(0, 0, 0), geom.V(1, 1, 1))
	}
	per := int(math.Cbrt(float64(len(items)) / 2))
	per = min(max(per, 4), 96)
	size := b.Size()
	cell := max(size.X, size.Y, size.Z) / float64(per)
	if cell <= 0 {
		cell = 1
	}
	g := &grid{lo: b.Min, cell: cell, items: items, stamp: make([]uint32, len(items))}
	g.byID = make(map[int64]geom.AABB, len(items))
	for a := 0; a < 3; a++ {
		g.n[a] = max(1, int(math.Ceil(size.Axis(a)/cell)))
	}
	g.cells = make([][]int32, g.n[0]*g.n[1]*g.n[2])
	for i, it := range items {
		g.byID[it.ID] = it.Box
		lo, hi := g.span(it.Box)
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				for z := lo[2]; z <= hi[2]; z++ {
					c := g.idx(x, y, z)
					g.cells[c] = append(g.cells[c], int32(i))
				}
			}
		}
	}
	return g
}

func (g *grid) coord(v float64, a int) int {
	c := int(math.Floor((v - g.lo.Axis(a)) / g.cell))
	return min(max(c, 0), g.n[a]-1)
}

func (g *grid) span(b geom.AABB) (lo, hi [3]int) {
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = g.coord(b.Min.Axis(a), a), g.coord(b.Max.Axis(a), a)
	}
	return lo, hi
}

func (g *grid) idx(x, y, z int) int { return (x*g.n[1]+y)*g.n[2] + z }

func (g *grid) nextStamp() uint32 {
	g.cur++
	if g.cur == 0 {
		clear(g.stamp)
		g.cur = 1
	}
	return g.cur
}

// rangeIDs returns the sorted IDs of every item whose box intersects q.
func (g *grid) rangeIDs(q geom.AABB) []int64 {
	st := g.nextStamp()
	var out []int64
	lo, hi := g.span(q)
	for x := lo[0]; x <= hi[0]; x++ {
		for y := lo[1]; y <= hi[1]; y++ {
			for z := lo[2]; z <= hi[2]; z++ {
				for _, i := range g.cells[g.idx(x, y, z)] {
					if g.stamp[i] == st {
						continue
					}
					g.stamp[i] = st
					if g.items[i].Box.Intersects(q) {
						out = append(out, g.items[i].ID)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// knnDists returns the ascending squared distances of the k items nearest
// to p (box distance, as the system defines it). Rings of cells around p's
// cell are scanned until the k-th best distance is provably final: every
// unscanned item lies outside the scanned cell cube.
func (g *grid) knnDists(p geom.Vec3, k int) []float64 {
	st := g.nextStamp()
	best := make([]float64, 0, k+1)
	var c [3]int
	for a := 0; a < 3; a++ {
		c[a] = g.coord(p.Axis(a), a)
	}
	maxR := max(g.n[0], g.n[1], g.n[2])
	for r := 0; r <= maxR; r++ {
		for x := c[0] - r; x <= c[0]+r; x++ {
			for y := c[1] - r; y <= c[1]+r; y++ {
				for z := c[2] - r; z <= c[2]+r; z++ {
					if x < 0 || y < 0 || z < 0 || x >= g.n[0] || y >= g.n[1] || z >= g.n[2] {
						continue
					}
					if max(abs(x-c[0]), abs(y-c[1]), abs(z-c[2])) != r {
						continue
					}
					for _, i := range g.cells[g.idx(x, y, z)] {
						if g.stamp[i] == st {
							continue
						}
						g.stamp[i] = st
						best = insertTopK(best, g.items[i].Box.Distance2ToPoint(p), k)
					}
				}
			}
		}
		if len(best) == k {
			bound := math.Inf(1)
			for a := 0; a < 3; a++ {
				lo := g.lo.Axis(a) + float64(c[a]-r)*g.cell
				hi := g.lo.Axis(a) + float64(c[a]+r+1)*g.cell
				bound = min(bound, p.Axis(a)-lo, hi-p.Axis(a))
			}
			if bound > 0 && best[k-1] <= bound*bound {
				break
			}
		}
	}
	return best
}

func insertTopK(best []float64, d float64, k int) []float64 {
	if len(best) == k && d >= best[k-1] {
		return best
	}
	i := sort.SearchFloat64s(best, d)
	best = append(best, 0)
	copy(best[i+1:], best[i:])
	best[i] = d
	if len(best) > k {
		best = best[:k]
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// selfJoin counts the pairs (a < b) whose boxes lie within eps of each other
// and returns an order-independent fingerprint of the pair set.
func (g *grid) selfJoin(eps float64) (int64, uint64) {
	var count int64
	var fp uint64
	eps2 := eps * eps
	for i, it := range g.items {
		st := g.nextStamp()
		lo, hi := g.span(it.Box.Expand(eps))
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				for z := lo[2]; z <= hi[2]; z++ {
					for _, j := range g.cells[g.idx(x, y, z)] {
						if g.stamp[j] == st || int(j) == i {
							continue
						}
						g.stamp[j] = st
						o := g.items[j]
						if o.ID > it.ID && it.Box.Distance2(o.Box) <= eps2 {
							count++
							fp += pairHash(it.ID, o.ID)
						}
					}
				}
			}
		}
	}
	return count, fp
}

func pairHash(a, b int64) uint64 {
	if a > b {
		a, b = b, a
	}
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h * 0xBF58476D1CE4E5B9
}

// answer is a reply reduced to what the check after the timed window
// needs: the item count, an order-independent fingerprint of the (ID, box)
// pairs, and the IDs in reply order — 8 bytes per item rather than a copy
// of every box, so the kept replies do not swell the benchmark process
// whose memory is measured. A range check needs only the count and the
// fingerprint, so kept range answers may drop their IDs.
type answer struct {
	n     int
	ids   []int64
	boxes uint64
}

func compact(items []index.Item) answer {
	a := answer{n: len(items), ids: make([]int64, len(items))}
	for i, it := range items {
		a.ids[i] = it.ID
		a.boxes += itemHash(it.ID, it.Box)
	}
	return a
}

// answerTo is compact for an answer to q: a range answer without its IDs.
func answerTo(q query, items []index.Item) answer {
	if q.knn {
		return compact(items)
	}
	a := answer{n: len(items)}
	for _, it := range items {
		a.boxes += itemHash(it.ID, it.Box)
	}
	return a
}

func itemHash(id int64, b geom.AABB) uint64 {
	h := uint64(id) * 0x9E3779B97F4A7C15
	for _, f := range [6]float64{b.Min.X, b.Min.Y, b.Min.Z, b.Max.X, b.Max.Y, b.Max.Z} {
		h = (h ^ math.Float64bits(f)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}

// boxesOf is the fingerprint the reference expects for the given IDs, or
// false if one of them is not in the data.
func (g *grid) boxesOf(ids []int64) (uint64, bool) {
	var fp uint64
	for _, id := range ids {
		b, ok := g.byID[id]
		if !ok {
			return 0, false
		}
		fp += itemHash(id, b)
	}
	return fp, true
}

// checkRange compares a returned range answer with the reference: the same
// number of items, and the fingerprint of exactly the reference's items with
// the boxes the data holds (a wrong, missing or repeated item, or a wrong
// box, changes it). A nil error means it is right.
func (g *grid) checkRange(q geom.AABB, a answer) error {
	want := g.rangeIDs(q)
	if a.n != len(want) {
		return fmt.Errorf("range %v: %d items, want %d", q, a.n, len(want))
	}
	if fp, _ := g.boxesOf(want); fp != a.boxes {
		return fmt.Errorf("range %v: %d items, but not the reference's items with the boxes the data holds", q, a.n)
	}
	return nil
}

// checkKNN compares a returned kNN answer with the reference: distinct
// items that exist with the returned boxes, whose distance multiset equals
// the true k nearest (ties between equidistant items may pick either).
func (g *grid) checkKNN(p geom.Vec3, k int, a answer) error {
	want := g.knnDists(p, k)
	if a.n != len(want) || len(a.ids) != len(want) {
		return fmt.Errorf("knn %v: %d items, want %d", p, len(a.ids), len(want))
	}
	fp, ok := g.boxesOf(a.ids)
	if !ok || fp != a.boxes {
		return fmt.Errorf("knn %v: an item is unknown or has a box the data does not hold", p)
	}
	seen := make(map[int64]bool, len(a.ids))
	dists := make([]float64, len(a.ids))
	for i, id := range a.ids {
		if seen[id] {
			return fmt.Errorf("knn %v: item %d repeated", p, id)
		}
		seen[id] = true
		dists[i] = g.byID[id].Distance2ToPoint(p)
	}
	sort.Float64s(dists)
	for i := range dists {
		if dists[i] != want[i] {
			return fmt.Errorf("knn %v: distance rank %d is %g, want %g", p, i, dists[i], want[i])
		}
	}
	return nil
}

// checkAnswer checks an answer to q against the reference.
func (g *grid) checkAnswer(q query, a answer) error {
	if q.knn {
		return g.checkKNN(q.point, knnK, a)
	}
	return g.checkRange(q.box, a)
}

// keeper holds, for the check after the timed window, the first answer to
// each pool query on each epoch. A later answer to the same query on the
// same epoch must equal it — same count and fingerprint — and is compared
// as it arrives, so a closed-loop reader's answers are all checked while
// only the distinct ones are kept. Kept range answers drop their IDs; kNN
// answers keep them, because ties may legitimately pick either item.
type keeper struct {
	mu     sync.Mutex
	pool   []query
	epochs map[uint64][]kept
}

// kept is one kept answer and how many answers it stands for (0: none yet).
type kept struct {
	a answer
	n int64
}

func newKeeper(pool []query) *keeper {
	return &keeper{pool: pool, epochs: map[uint64][]kept{}}
}

// offer records answer a to pool query q on epoch e. It returns an error
// when a differs from the answer already kept for (e, q).
func (k *keeper) offer(e uint64, q int, a answer) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.epochs[e]
	if t == nil {
		t = make([]kept, len(k.pool))
		k.epochs[e] = t
	}
	s := &t[q]
	if s.n == 0 {
		if !k.pool[q].knn {
			a.ids = nil
		}
		s.a, s.n = a, 1
		return nil
	}
	if s.a.n != a.n || s.a.boxes != a.boxes {
		return fmt.Errorf("query %d on epoch %d: %d items, where an earlier answer on the same epoch had %d or other items", q, e, a.n, s.a.n)
	}
	s.n++
	return nil
}

// check records the verdict on every answer kept for epoch e against the
// reference g, and forgets them.
func (k *keeper) check(e uint64, g *grid, r *report) {
	for q, s := range k.epochs[e] {
		if s.n > 0 {
			r.checkKept(g, k.pool[q], s)
		}
	}
	delete(k.epochs, e)
}
