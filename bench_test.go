package spatialsim

// Benchmarks regenerating every figure and in-text experiment of the paper
// (README.md's Experiments section lists them). The experiment drivers live in
// internal/experiments; these benchmarks wrap them at a benchmark-friendly
// scale plus micro-benchmarks for the individual operations the experiments
// are composed of.

import (
	"testing"

	"spatialsim/internal/core"
	"spatialsim/internal/crtree"
	"spatialsim/internal/datagen"
	"spatialsim/internal/exec"
	"spatialsim/internal/experiments"
	"spatialsim/internal/geom"
	"spatialsim/internal/grid"
	"spatialsim/internal/index"
	"spatialsim/internal/join"
	"spatialsim/internal/mesh"
	"spatialsim/internal/moving"
	"spatialsim/internal/octree"
	"spatialsim/internal/rtree"
)

// benchScale keeps each driver invocation in the tens of milliseconds so the
// full -bench=. run stays manageable; pass -elements to cmd/spatialbench for
// larger runs.
func benchScale() experiments.Scale {
	return experiments.Scale{Elements: 20000, Queries: 50, Selectivity: 5e-5, Seed: 1}
}

// --- E1: Figure 2 — R-Tree on disk vs in memory -----------------------------

func BenchmarkFigure2_DiskVsMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchScale())
		if r.DiskReadingPct < r.MemoryReadingPct {
			b.Fatal("unexpected breakdown shape")
		}
	}
}

// --- E2: Figure 3 — in-memory R-Tree breakdown ------------------------------

func BenchmarkFigure3_MemoryBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure3(benchScale())
	}
}

// --- E3: Section 4.1 — update vs rebuild under massive minimal movement -----

func BenchmarkUpdateVsRebuild_Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.UpdateVsRebuild(benchScale(), []float64{0.1, 0.4, 1.0})
	}
}

// --- E4: Figure 4 — unnecessary intersection tests --------------------------

func BenchmarkFigure4_UnnecessaryTests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Figure4(benchScale())
	}
}

// --- E5: in-memory index comparison + LSH -----------------------------------

func BenchmarkIndexComparison_AllFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.IndexComparison(benchScale())
	}
}

func BenchmarkIndexComparison_LSHRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MeasureLSHRecall(benchScale())
	}
}

// --- E6: spatial join comparison ---------------------------------------------

func benchJoinItems(n int) []index.Item {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(n/400+1, 400, 3))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items
}

func BenchmarkJoin_NestedLoop(b *testing.B) {
	items := benchJoinItems(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfNestedLoop(items, join.Options{Eps: 0.003})
	}
}

func BenchmarkJoin_PlaneSweep(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfPlaneSweep(items, join.Options{Eps: 0.003})
	}
}

func BenchmarkJoin_Grid(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfGridJoin(items, join.Options{Eps: 0.003}, join.GridJoinConfig{})
	}
}

func BenchmarkJoin_RTreeSync(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfRTreeJoin(items, join.Options{Eps: 0.003})
	}
}

func BenchmarkJoin_TOUCH(b *testing.B) {
	items := benchJoinItems(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		join.SelfTOUCHJoin(items, join.Options{Eps: 0.003})
	}
}

// --- E7: moving-object update strategies -------------------------------------

func BenchmarkMoving_Strategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.MovingComparison(benchScale(), 2, 20)
	}
}

func benchMovingWorkload(b *testing.B, ix index.Index) {
	b.Helper()
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(25, 400, 5))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	if loader, ok := ix.(index.BulkLoader); ok {
		loader.BulkLoad(items)
	} else {
		for _, it := range items {
			ix.Insert(it.ID, it.Box)
		}
	}
	model := datagen.NewPlasticityModel(6)
	queries := datagen.GenerateDataCenteredQueries(d, 20, 5e-4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := make([]geom.AABB, d.Len())
		for j := range d.Elements {
			old[j] = d.Elements[j].Box
		}
		model.Step(d)
		for j := range d.Elements {
			ix.Update(d.Elements[j].ID, old[j], d.Elements[j].Box)
		}
		if tw, ok := ix.(*moving.Throwaway); ok {
			tw.Rebuild()
		}
		for _, q := range queries {
			ix.Search(q, func(index.Item) bool { return true })
		}
	}
}

func BenchmarkMoving_RTreeInPlace(b *testing.B) {
	benchMovingWorkload(b, rtree.NewDefault())
}

func BenchmarkMoving_RTreeThrowaway(b *testing.B) {
	benchMovingWorkload(b, moving.NewThrowaway(rtree.NewDefault()))
}

func BenchmarkMoving_RTreeLazy(b *testing.B) {
	benchMovingWorkload(b, moving.NewLazy(rtree.NewDefault(), 0.01))
}

func BenchmarkMoving_RTreeBuffered(b *testing.B) {
	benchMovingWorkload(b, moving.NewBuffered(rtree.NewDefault(), 4096))
}

func BenchmarkMoving_GridInPlace(b *testing.B) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(6.583, 6.583, 6.583))
	benchMovingWorkload(b, grid.New(grid.Config{Universe: u, CellsPerDim: 40}))
}

// --- E8: full simulation step ------------------------------------------------

func BenchmarkSimStep_AllIndexes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.SimStep(benchScale(), 1, 40)
	}
}

// --- E9: mesh / connectivity-driven queries ----------------------------------

func BenchmarkMesh_Experiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Mesh(experiments.Scale{Elements: 8000, Queries: 20, Seed: 2}, 1, 20)
	}
}

func benchMeshSetup() (*mesh.Mesh, []geom.AABB) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(10, 10, 10))
	m := mesh.GenerateLattice(mesh.LatticeConfig{Nx: 20, Ny: 20, Nz: 20, Universe: u, Jitter: 0.2, Seed: 3})
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 50, Selectivity: 2e-3, Universe: u, Seed: 4})
	return m, queries
}

func BenchmarkMesh_DLSRange(b *testing.B) {
	m, queries := benchMeshSetup()
	d := mesh.NewDLS(m, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			d.Range(q)
		}
	}
}

func BenchmarkMesh_OctopusRange(b *testing.B) {
	m, queries := benchMeshSetup()
	o := mesh.NewOctopus(m, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			o.Range(q)
		}
	}
}

func BenchmarkMesh_RTreeRebuildAndRange(b *testing.B) {
	m, queries := benchMeshSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := make([]index.Item, m.Len())
		for j := range m.Vertices {
			items[j] = index.Item{ID: m.Vertices[j].ID, Box: geom.PointAABB(m.Vertices[j].Pos)}
		}
		rt := rtree.NewDefault()
		rt.BulkLoad(items)
		for _, q := range queries {
			index.SearchIDs(rt, q)
		}
	}
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblationGridResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationGridResolution(benchScale(), []int{8, 32})
	}
}

func BenchmarkAblationAdvisor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationAdvisor(benchScale(), 3, 40)
	}
}

func BenchmarkAblationCRTreeNodeSize(b *testing.B) {
	items := benchJoinItems(20000)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
		N: 50, Selectivity: 5e-5,
		Universe: geom.NewAABB(geom.V(0, 0, 0), geom.V(6.583, 6.583, 6.583)), Seed: 8,
	})
	for _, fanout := range []int{7, 14, 28, 56} {
		b.Run(byteLabel(fanout), func(b *testing.B) {
			t := crtree.New(crtree.Config{Fanout: fanout})
			t.BulkLoad(items)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					t.Search(q, func(index.Item) bool { return true })
				}
			}
		})
	}
}

func byteLabel(fanout int) string {
	// Each quantized CR-Tree entry is 10 bytes (6 coordinate bytes + ref);
	// report the approximate node footprint so the ablation reads as the
	// cache-line sweep the paper discusses.
	switch {
	case fanout <= 7:
		return "node~1cacheline"
	case fanout <= 14:
		return "node~2cachelines"
	case fanout <= 28:
		return "node~4cachelines"
	default:
		return "node~8cachelines"
	}
}

// --- Micro-benchmarks for the core operations ---------------------------------

func benchItems(n int) ([]index.Item, geom.AABB) {
	d := datagen.GenerateNeurons(datagen.DefaultNeuronConfig(n/400+1, 400, 9))
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items, d.Universe
}

func BenchmarkMicro_RTreeBulkLoad(b *testing.B) {
	items, _ := benchItems(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rtree.NewDefault()
		t.BulkLoad(items)
	}
}

func BenchmarkMicro_GridBulkLoad(b *testing.B) {
	items, u := benchItems(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := grid.New(grid.Config{Universe: u, CellsPerDim: 40})
		g.BulkLoad(items)
	}
}

func BenchmarkMicro_SimIndexBulkLoad(b *testing.B) {
	items, u := benchItems(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.New(core.Config{Universe: u})
		s.BulkLoad(items)
	}
}

func benchRangeQueries(b *testing.B, ix index.Index, items []index.Item, u geom.AABB) {
	b.Helper()
	ix.(index.BulkLoader).BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		ix.Search(q, func(index.Item) bool { return true })
	}
}

func BenchmarkMicro_RTreeRangeQuery(b *testing.B) {
	items, u := benchItems(50000)
	benchRangeQueries(b, rtree.NewDefault(), items, u)
}

func BenchmarkMicro_CRTreeRangeQuery(b *testing.B) {
	items, u := benchItems(50000)
	benchRangeQueries(b, crtree.New(crtree.Config{}), items, u)
}

func BenchmarkMicro_GridRangeQuery(b *testing.B) {
	items, u := benchItems(50000)
	benchRangeQueries(b, grid.New(grid.Config{Universe: u, CellsPerDim: 40}), items, u)
}

func BenchmarkMicro_SimIndexRangeQuery(b *testing.B) {
	items, u := benchItems(50000)
	benchRangeQueries(b, core.New(core.Config{Universe: u}), items, u)
}

func benchPointUpdates(b *testing.B, ix index.Index, items []index.Item) {
	b.Helper()
	ix.(index.BulkLoader).BulkLoad(items)
	delta := geom.V(0.001, 0.001, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := &items[i%len(items)]
		newBox := it.Box.Translate(delta)
		ix.Update(it.ID, it.Box, newBox)
		it.Box = newBox
	}
}

func BenchmarkMicro_RTreeUpdate(b *testing.B) {
	items, _ := benchItems(50000)
	benchPointUpdates(b, rtree.NewDefault(), items)
}

func BenchmarkMicro_GridUpdate(b *testing.B) {
	items, u := benchItems(50000)
	benchPointUpdates(b, grid.New(grid.Config{Universe: u, CellsPerDim: 40}), items)
}

func BenchmarkMicro_SimIndexKNN(b *testing.B) {
	items, u := benchItems(50000)
	s := core.New(core.Config{Universe: u})
	s.BulkLoad(items)
	points := datagen.GenerateKNNQueries(100, u, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.KNN(points[i%len(points)], 8)
	}
}

// --- E10: parallel execution engine -------------------------------------------

// batchBenchState caches the 100k-element index and 1k-query batch the
// BenchmarkBatchSearch pair runs over, so the sequential and parallel sides
// measure identical work.
var batchBenchState struct {
	tree    *rtree.Tree
	queries []geom.AABB
	items   []index.Item
	u       geom.AABB
}

func batchBenchSetup(b *testing.B) (*rtree.Tree, []geom.AABB) {
	b.Helper()
	if batchBenchState.tree == nil {
		items, u := benchItems(100000)
		t := rtree.NewDefault()
		t.BulkLoad(items)
		batchBenchState.tree = t
		batchBenchState.items = items
		batchBenchState.u = u
		batchBenchState.queries = datagen.GenerateRangeQueries(datagen.RangeQueryConfig{
			N: 1000, Selectivity: 5e-5, Universe: u, Seed: 21,
		})
	}
	return batchBenchState.tree, batchBenchState.queries
}

func BenchmarkBatchSearch_Sequential(b *testing.B) {
	ix, queries := batchBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			ix.Search(q, func(index.Item) bool { return true })
		}
	}
}

func BenchmarkBatchSearch_Workers8(b *testing.B) {
	ix, queries := batchBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.BatchSearch(ix, queries, exec.Options{Workers: 8})
	}
}

func BenchmarkBatchSearch_WorkersMax(b *testing.B) {
	ix, queries := batchBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.BatchSearch(ix, queries, exec.Options{})
	}
}

func BenchmarkBatchKNN_Sequential(b *testing.B) {
	ix, _ := batchBenchSetup(b)
	points := datagen.GenerateKNNQueries(500, batchBenchState.u, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			ix.KNN(p, 8)
		}
	}
}

func BenchmarkBatchKNN_Workers8(b *testing.B) {
	ix, _ := batchBenchSetup(b)
	points := datagen.GenerateKNNQueries(500, batchBenchState.u, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.BatchKNN(ix, points, 8, exec.Options{Workers: 8})
	}
}

func BenchmarkParallelBulkLoad_RTree_Sequential(b *testing.B) {
	batchBenchSetup(b)
	items := batchBenchState.items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rtree.NewDefault()
		t.BulkLoad(items)
	}
}

func BenchmarkParallelBulkLoad_RTree_Workers8(b *testing.B) {
	batchBenchSetup(b)
	items := batchBenchState.items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rtree.NewDefault()
		t.ParallelBulkLoad(items, 8)
	}
}

func BenchmarkParallelBulkLoad_Grid_Sequential(b *testing.B) {
	batchBenchSetup(b)
	items, u := batchBenchState.items, batchBenchState.u
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := grid.New(grid.Config{Universe: u, CellsPerDim: 40})
		g.BulkLoad(items)
	}
}

func BenchmarkParallelBulkLoad_Grid_Workers8(b *testing.B) {
	batchBenchSetup(b)
	items, u := batchBenchState.items, batchBenchState.u
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := grid.New(grid.Config{Universe: u, CellsPerDim: 40})
		g.ParallelBulkLoad(items, 8)
	}
}

func BenchmarkConcurrentIndex_StripedInserts(b *testing.B) {
	batchBenchSetup(b)
	items := batchBenchState.items
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := exec.NewConcurrent(0, func() index.Index { return rtree.NewDefault() })
		exec.ParallelBulkLoad(c, items, exec.Options{Workers: 8})
	}
}

func BenchmarkParallelSpeedup_Experiment(b *testing.B) {
	s := benchScale()
	s.Workers = 8
	for i := 0; i < b.N; i++ {
		experiments.ParallelSpeedup(s)
	}
}

// --- E11: flat-memory layouts, pointer vs compact ------------------------------

func BenchmarkCacheLayout_Experiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.CacheLayout(benchScale())
	}
}

// benchUniformItems builds the uniform dataset the cache-layout acceptance
// workload uses (spatially homogeneous, so layout effects are not masked by
// clustering).
func benchUniformItems(n int) ([]index.Item, geom.AABB) {
	u := geom.NewAABB(geom.V(0, 0, 0), geom.V(100, 100, 100))
	d := datagen.GenerateUniform(datagen.UniformConfig{N: n, Universe: u, Seed: 31})
	items := make([]index.Item, d.Len())
	for i := range d.Elements {
		items[i] = index.Item{ID: d.Elements[i].ID, Box: d.Elements[i].Box}
	}
	return items, u
}

func benchVisitorRangeQueries(b *testing.B, rv index.RangeVisitor, u geom.AABB) {
	b.Helper()
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		rv.RangeVisit(q, func(index.Item) bool { return true })
	}
}

func BenchmarkMicro_RTreeRangeQueryPointer(b *testing.B) {
	items, u := benchUniformItems(50000)
	t := rtree.NewDefault()
	t.BulkLoad(items)
	benchVisitorRangeQueries(b, t, u)
}

func BenchmarkMicro_RTreeRangeQueryCompact(b *testing.B) {
	items, u := benchUniformItems(50000)
	benchVisitorRangeQueries(b, rtree.FreezeItems(items, rtree.Config{}), u)
}

func BenchmarkMicro_GridRangeQueryPointer(b *testing.B) {
	items, u := benchUniformItems(50000)
	g := grid.New(grid.Config{Universe: u, CellsPerDim: 40})
	g.BulkLoad(items)
	benchVisitorRangeQueries(b, g, u)
}

func BenchmarkMicro_GridRangeQueryCompact(b *testing.B) {
	items, u := benchUniformItems(50000)
	benchVisitorRangeQueries(b, grid.FreezeItems(items, grid.Config{Universe: u, CellsPerDim: 40}), u)
}

func BenchmarkMicro_OctreeRangeQueryPointer(b *testing.B) {
	items, u := benchUniformItems(50000)
	t := octree.New(octree.Config{Universe: u})
	t.BulkLoad(items)
	queries := datagen.GenerateRangeQueries(datagen.RangeQueryConfig{N: 100, Selectivity: 5e-5, Universe: u, Seed: 11})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Search(queries[i%len(queries)], func(index.Item) bool { return true })
	}
}

func BenchmarkMicro_OctreeRangeQueryCompact(b *testing.B) {
	items, u := benchUniformItems(50000)
	benchVisitorRangeQueries(b, octree.FreezeItems(items, octree.Config{Universe: u}), u)
}

func BenchmarkMicro_RTreeKNNPointer(b *testing.B) {
	items, u := benchUniformItems(50000)
	t := rtree.NewDefault()
	t.BulkLoad(items)
	points := datagen.GenerateKNNQueries(100, u, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.KNN(points[i%len(points)], 8)
	}
}

func BenchmarkMicro_RTreeKNNCompact(b *testing.B) {
	items, u := benchUniformItems(50000)
	c := rtree.FreezeItems(items, rtree.Config{})
	points := datagen.GenerateKNNQueries(100, u, 12)
	buf := make([]index.Item, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.KNNInto(points[i%len(points)], 8, buf[:0])
	}
}

func BenchmarkBatchRangeVisit_CompactWorkers8(b *testing.B) {
	ix, queries := batchBenchSetup(b)
	frozen := ix.Freeze()
	arena := &exec.Arena{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec.BatchRangeVisitArena(frozen, queries, exec.Options{Workers: 8}, arena)
	}
}
