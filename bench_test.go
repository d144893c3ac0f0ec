// Benchmarks regenerating the paper's tables and figures (§5), one bench
// family per artifact, plus detector micro-benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// Table1 rows correspond to BenchmarkTable1/*, Table 2 to
// BenchmarkTable2/*, and figures 10–12 to BenchmarkFig10/11/12 with
// sub-benchmarks per variant and thread count. cmd/commlat prints the
// same experiments in the paper's tabular format.
package commlat_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"commlat/internal/abslock"
	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps/boruvka"
	"commlat/internal/apps/cluster"
	"commlat/internal/apps/preflow"
	"commlat/internal/bench"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/workload"
)

// --- Table 1: single-threaded guarded runs (the overhead column) ---------

func BenchmarkTable1PreflowSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := workload.GenRMF(6, 6, 1, 1000, 1)
		b.StartTimer()
		preflow.Sequential(net)
	}
}

func benchPreflow(b *testing.B, mk func() *flowgraph.Graph) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := mk()
		b.StartTimer()
		if _, _, err := preflow.Run(g, engine.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Preflow(b *testing.B) {
	mkNet := func() *flowgraph.Net { return workload.GenRMF(6, 6, 1, 1000, 1) }
	b.Run("part", func(b *testing.B) {
		benchPreflow(b, func() *flowgraph.Graph { return flowgraph.NewPartitioned(mkNet(), 32) })
	})
	b.Run("ex", func(b *testing.B) {
		benchPreflow(b, func() *flowgraph.Graph { return flowgraph.NewExclusive(mkNet()) })
	})
	b.Run("ml", func(b *testing.B) {
		benchPreflow(b, func() *flowgraph.Graph { return flowgraph.NewRW(mkNet()) })
	})
}

func BenchmarkTable1BoruvkaSequential(b *testing.B) {
	nodes, edges := workload.Mesh(24, 24, 1)
	for i := 0; i < b.N; i++ {
		boruvka.Sequential(nodes, edges)
	}
}

func BenchmarkTable1Boruvka(b *testing.B) {
	nodes, edges := workload.Mesh(24, 24, 1)
	for _, v := range []struct {
		name string
		mk   func() unionfind.Sets
	}{
		{"uf-ml", func() unionfind.Sets { return unionfind.NewML(nodes) }},
		{"uf-gk", func() unionfind.Sets { return unionfind.NewGK(nodes) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				uf := v.mk()
				b.StartTimer()
				if _, err := boruvka.Run(uf, nodes, edges, engine.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1ClusteringSequential(b *testing.B) {
	pts := workload.RandomPoints(600, 1000, 1)
	for i := 0; i < b.N; i++ {
		cluster.Sequential(pts)
	}
}

func BenchmarkTable1Clustering(b *testing.B) {
	pts := workload.RandomPoints(600, 1000, 1)
	for _, v := range []struct {
		name string
		mk   func() kdtree.Index
	}{
		{"kd-ml", func() kdtree.Index { return kdtree.NewML() }},
		{"kd-gk", func() kdtree.Index { return kdtree.NewGK() }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				idx := v.mk()
				b.StartTimer()
				if _, _, err := cluster.Run(idx, pts, engine.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 2: the set microbenchmark --------------------------------------

func BenchmarkTable2(b *testing.B) {
	const ops = 20000
	distinct := workload.SetOpsDistinct(ops, 1)
	repeats := workload.SetOpsClasses(ops, 10, 1)
	inputs := []struct {
		name string
		ops  []workload.SetOp
	}{{"distinct", distinct}, {"repeats", repeats}}
	schemes := []struct {
		name string
		mk   func() intset.Set
	}{
		{"global", func() intset.Set { return intset.NewGlobalLock(intset.NewHashRep()) }},
		{"exclusive", func() intset.Set { return intset.NewExclusiveLocked(intset.NewHashRep()) }},
		{"rw", func() intset.Set { return intset.NewRWLocked(intset.NewHashRep()) }},
		{"gatekeeper", func() intset.Set { return intset.NewGatekept(intset.NewHashRep()) }},
	}
	for _, in := range inputs {
		for _, sc := range schemes {
			b.Run(fmt.Sprintf("%s/%s", in.name, sc.name), func(b *testing.B) {
				var lastAborts float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := sc.mk()
					b.StartTimer()
					stats, _, err := bench.RunSetMicro(s, in.ops, 4)
					if err != nil {
						b.Fatal(err)
					}
					lastAborts = stats.AbortRatio()
				}
				b.ReportMetric(lastAborts*100, "abort%")
			})
		}
	}
}

// --- Figures 10–12: thread sweeps -----------------------------------------

func threadAxis() []int { return []int{1, 2, 4} }

func BenchmarkFig10(b *testing.B) {
	mkNet := func() *flowgraph.Net { return workload.GenRMF(6, 6, 1, 1000, 1) }
	variants := []struct {
		name string
		mk   func() *flowgraph.Graph
	}{
		{"ml", func() *flowgraph.Graph { return flowgraph.NewRW(mkNet()) }},
		{"ex", func() *flowgraph.Graph { return flowgraph.NewExclusive(mkNet()) }},
		{"part", func() *flowgraph.Graph { return flowgraph.NewPartitioned(mkNet(), 32) }},
	}
	for _, v := range variants {
		for _, th := range threadAxis() {
			b.Run(fmt.Sprintf("%s/threads=%d", v.name, th), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := v.mk()
					b.StartTimer()
					if _, _, err := preflow.Run(g, engine.Options{Workers: th}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	pts := workload.RandomPoints(800, 1000, 1)
	variants := []struct {
		name string
		mk   func() kdtree.Index
	}{
		{"kd-gk", func() kdtree.Index { return kdtree.NewGK() }},
		{"kd-ml", func() kdtree.Index { return kdtree.NewML() }},
	}
	for _, v := range variants {
		for _, th := range threadAxis() {
			b.Run(fmt.Sprintf("%s/threads=%d", v.name, th), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					idx := v.mk()
					b.StartTimer()
					if _, _, err := cluster.Run(idx, pts, engine.Options{Workers: th}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig12(b *testing.B) {
	nodes, edges := workload.Mesh(32, 32, 1)
	variants := []struct {
		name string
		mk   func() unionfind.Sets
	}{
		{"uf-gk", func() unionfind.Sets { return unionfind.NewGK(nodes) }},
		{"uf-ml", func() unionfind.Sets { return unionfind.NewML(nodes) }},
	}
	for _, v := range variants {
		for _, th := range threadAxis() {
			b.Run(fmt.Sprintf("%s/threads=%d", v.name, th), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					uf := v.mk()
					b.StartTimer()
					if _, err := boruvka.Run(uf, nodes, edges, engine.Options{Workers: th}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- detector micro-benchmarks (ablation: raw cost per guarded op) -------
//
// Bodies live in internal/bench/micro.go, shared with `commlat bench
// -json` (which emits BENCH_detectors.json for the CI allocation gate).
// The wrappers pin the historical benchmark names.

func BenchmarkDetectorAbslockRW(b *testing.B)         { bench.DetectorAbslockRW(b) }
func BenchmarkDetectorGlobalLock(b *testing.B)        { bench.DetectorGlobalLock(b) }
func BenchmarkDetectorLiberalLock(b *testing.B)       { bench.DetectorLiberalLock(b) }
func BenchmarkDetectorForwardGatekeeper(b *testing.B) { bench.DetectorForwardGatekeeper(b) }
func BenchmarkDetectorCascadeGatekeeper(b *testing.B) { bench.DetectorCascadeGatekeeper(b) }
func BenchmarkDetectorGeneralGatekeeper(b *testing.B) { bench.DetectorGeneralGatekeeper(b) }
func BenchmarkDetectorUnionFindGeneric(b *testing.B)  { bench.DetectorUnionFindGeneric(b) }
func BenchmarkDetectorUnionFindML(b *testing.B)       { bench.DetectorUnionFindML(b) }

// Traced variants run with the telemetry event trace enabled
// (unsampled); the allocation gate holds them to 0 allocs/op too.
func BenchmarkDetectorForwardGatekeeperTraced(b *testing.B) {
	bench.DetectorForwardGatekeeperTraced(b)
}
func BenchmarkDetectorCascadeGatekeeperTraced(b *testing.B) {
	bench.DetectorCascadeGatekeeperTraced(b)
}
func BenchmarkDetectorGeneralGatekeeperTraced(b *testing.B) {
	bench.DetectorGeneralGatekeeperTraced(b)
}
func BenchmarkTelemetryEmit(b *testing.B) { bench.TelemetryEmit(b) }

// Batched admission: groups of adds share one representation lock
// acquisition, one combined-signature probe, and one group commit. The
// acceptance target is Batch32 at ≥2× BenchmarkDetectorCascadeGatekeeper.
func BenchmarkDetectorCascadeBatch8(b *testing.B)   { bench.DetectorCascadeBatch8(b) }
func BenchmarkDetectorCascadeBatch32(b *testing.B)  { bench.DetectorCascadeBatch32(b) }
func BenchmarkDetectorCascadeBatch128(b *testing.B) { bench.DetectorCascadeBatch128(b) }

// BenchmarkDetectorCascadePairSerial: a two-key spec through the plain
// cascade, one thread.
func BenchmarkDetectorCascadePairSerial(b *testing.B) { bench.DetectorCascadePairSerial(b) }

// BenchmarkCascadeSlowPath forces every op through all three cascade
// stages (filter hit → optimistic scan → precise check).
func BenchmarkCascadeSlowPath(b *testing.B) { bench.CascadeSlowPath(b) }

// BenchmarkForwardScanFallback isolates the forward gatekeeper's
// scan-fallback path (a pair condition the disequality index rejects).
func BenchmarkForwardScanFallback(b *testing.B) { bench.ForwardScanFallback(b) }

func BenchmarkSynthesize(b *testing.B) {
	spec := flowgraph.RWSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scheme, err := abslock.Synthesize(spec)
		if err != nil {
			b.Fatal(err)
		}
		scheme.Reduce()
	}
}

func BenchmarkCondEval(b *testing.B) { bench.CondEval(b) }

// --- Detector-runtime contention (§3.4 overhead under parallelism) ------
//
// The paper's detectors only pay off when their own runtime cost does not
// become the serial bottleneck (the o term of the §5 T·o/min(a,p)
// model). These two benches stress the hot paths of the two runtime
// detectors under parallel load with semantically disjoint operations —
// every conflict decision is "allow", so all measured cost is detector
// overhead. Run with -cpu 1,2,4 -benchmem to see scaling and allocation
// behaviour (EXPERIMENTS.md records before/after numbers).

// BenchmarkManagerContention exercises the abstract-lock manager's
// acquire/commit/release cycle: one write acquisition plus one read
// acquisition per iteration, on keys private to each worker.
func BenchmarkManagerContention(b *testing.B) {
	scheme, err := abslock.Synthesize(intset.RWSpec())
	if err != nil {
		b.Fatal(err)
	}
	mgr := abslock.NewManager(scheme.Reduce(), nil)
	var gid atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := gid.Add(1) << 32
		var i int64
		for pb.Next() {
			i++
			tx := engine.GetTx()
			k := base | (i & 1023)
			if err := mgr.PreAcquire(tx, "add", core.Args1(core.VInt(k))); err != nil {
				b.Error(err)
				tx.Abort()
				engine.PutTx(tx)
				continue
			}
			if err := mgr.PreAcquire(tx, "contains", core.Args1(core.VInt(k+(1<<20)))); err != nil {
				b.Error(err)
				tx.Abort()
				engine.PutTx(tx)
				continue
			}
			tx.Commit()
			engine.PutTx(tx)
		}
	})
}

func benchForwardHotPath(b *testing.B, activeMethod string, nActive int) {
	b.Helper()
	g, err := gatekeeper.NewForward(intset.PreciseSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	// A long-lived transaction keeps nActive invocations in the log, so
	// every benchmark invocation is checked against all of them ("checks")
	// or skips them via the trivially-true pair condition ("trivial").
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(1); i <= int64(nActive); i++ {
		if _, err := g.Invoke(holder, activeMethod, core.Args1(core.VInt(-i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(activeMethod == "add")}
		}); err != nil {
			b.Fatal(err)
		}
	}
	var gid atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		base := gid.Add(1) << 32
		var i int64
		for pb.Next() {
			i++
			tx := engine.GetTx()
			k := base | (i & 1023)
			if _, err := g.Invoke(tx, "contains", core.Args1(core.VInt(k)), func() gatekeeper.Effect {
				return gatekeeper.Effect{Ret: core.VBool(false)}
			}); err != nil {
				b.Error(err)
			}
			tx.Commit()
			engine.PutTx(tx)
		}
	})
}

// BenchmarkForwardHotPath exercises the forward gatekeeper's per-check
// path: "checks" evaluates a non-trivial condition against every active
// invocation, "trivial" measures the cost of skipping pairs whose
// condition is the constant true.
func BenchmarkForwardHotPath(b *testing.B) {
	b.Run("checks", func(b *testing.B) { benchForwardHotPath(b, "add", 8) })
	b.Run("trivial", func(b *testing.B) { benchForwardHotPath(b, "contains", 64) })
}

// --- Disequality-index window sweeps --------------------------------------
//
// A long-lived holder transaction keeps `window` adds on distinct keys
// active; each measured invocation adds yet another distinct key. With
// the disequality index every probe misses and the cost is flat in the
// window; with the index disabled (the seed behaviour) every active
// entry is scanned and checked, so cost grows linearly.

func BenchmarkForwardIndexed(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"indexed", false}, {"scan", true}} {
		for _, w := range []int{64, 512, 4096} {
			b.Run(fmt.Sprintf("%s/window=%d", mode.name, w), func(b *testing.B) {
				bench.ForwardWindow(b, mode.disable, w)
			})
		}
	}
}

// BenchmarkCascadeIndexed is ForwardIndexed's window sweep under the
// cascade: the incoming key's filter cell stays empty, so cost is flat
// in the window and no per-invocation lock is ever taken.
func BenchmarkCascadeIndexed(b *testing.B) {
	for _, w := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			bench.CascadeWindow(b, w)
		})
	}
}

// BenchmarkCascadeBatch sweeps batch size against window size under the
// batched admission path (EXPERIMENTS.md throughput-vs-batch-size
// table): cost per op falls with batch and stays flat in the window.
func BenchmarkCascadeBatch(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		for _, w := range []int{64, 512, 4096} {
			b.Run(fmt.Sprintf("batch=%d/window=%d", n, w), func(b *testing.B) {
				bench.CascadeBatchWindow(b, n, w)
			})
		}
	}
}

func benchGeneralUFWindow(b *testing.B, window int) {
	b.Helper()
	uf := unionfind.NewGeneric(1 << 20)
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(0); i < int64(window); i++ {
		if _, err := uf.Find(holder, i); err != nil {
			b.Fatal(err)
		}
	}
	base := int64(1) << 16
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		a := base + int64(n%(1<<18))*2
		if _, err := uf.Union(tx, a, a+1); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

func BenchmarkGeneralIndexed(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"indexed", false}, {"scan", true}} {
		for _, w := range []int{64, 512, 4096} {
			b.Run(fmt.Sprintf("set/%s/window=%d", mode.name, w), func(b *testing.B) {
				bench.GeneralSetWindow(b, mode.disable, w)
			})
		}
	}
	for _, w := range []int{64, 256} {
		b.Run(fmt.Sprintf("unionfind-fallback/window=%d", w), func(b *testing.B) {
			benchGeneralUFWindow(b, w)
		})
	}
}
