// Detector micro-benchmarks: the raw cost of one guarded operation under
// each conflict detector, plus window sweeps for the disequality index.
// These are plain func(*testing.B) so two harnesses can share them:
// bench_test.go wraps them as ordinary `go test -bench` benchmarks
// (stable names, so EXPERIMENTS.md numbers stay comparable across PRs),
// and `commlat bench` runs them via testing.Benchmark to emit
// BENCH_detectors.json for the allocation-regression gate.
//
// All benchmarks drive transactions through the engine.GetTx/PutTx pool:
// with the tagged value representation and pooled detector records, the
// indexed fast paths run at 0 allocs/op in steady state, and the CI gate
// (scripts/check_alloc_budget.go against BENCH_budget.json) keeps them
// there.
package bench

import (
	"fmt"
	"testing"

	"commlat/internal/adt/intset"
	"commlat/internal/adt/unionfind"
	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/gatekeeper"
	"commlat/internal/telemetry"
)

// Micro is one named detector micro-benchmark.
type Micro struct {
	Name string
	F    func(b *testing.B)
}

// Micros lists every detector micro-benchmark in a stable order. Names
// match the Benchmark* functions in bench_test.go minus the "Benchmark"
// prefix (sub-benchmarks join with '/').
func Micros() []Micro {
	ms := []Micro{
		{"DetectorAbslockRW", DetectorAbslockRW},
		{"DetectorGlobalLock", DetectorGlobalLock},
		{"DetectorLiberalLock", DetectorLiberalLock},
		{"DetectorForwardGatekeeper", DetectorForwardGatekeeper},
		{"DetectorCascadeGatekeeper", DetectorCascadeGatekeeper},
		{"DetectorGeneralGatekeeper", DetectorGeneralGatekeeper},
		{"DetectorUnionFindGeneric", DetectorUnionFindGeneric},
		{"DetectorUnionFindML", DetectorUnionFindML},
		{"CondEval", CondEval},
		{"DetectorForwardGatekeeper/traced", DetectorForwardGatekeeperTraced},
		{"DetectorCascadeGatekeeper/traced", DetectorCascadeGatekeeperTraced},
		{"DetectorGeneralGatekeeper/traced", DetectorGeneralGatekeeperTraced},
		{"TelemetryEmit", TelemetryEmit},
		{"CascadeSlowPath", CascadeSlowPath},
		{"ForwardScanFallback", ForwardScanFallback},
		{"DetectorCascadeBatch8", DetectorCascadeBatch8},
		{"DetectorCascadeBatch32", DetectorCascadeBatch32},
		{"DetectorCascadeBatch128", DetectorCascadeBatch128},
		{"DetectorCascadePairSerial", DetectorCascadePairSerial},
		{"DetectorForwardGatekeeper/latency", DetectorForwardGatekeeperLatency},
		{"DetectorCascadeGatekeeper/latency", DetectorCascadeGatekeeperLatency},
		{"DetectorCascadeBatch32/latency", DetectorCascadeBatch32Latency},
		{"TelemetryLatencyObserve", TelemetryLatencyObserve},
		{"TelemetryFlightRecord", TelemetryFlightRecord},
	}
	for _, w := range []int{64, 512, 4096} {
		w := w
		ms = append(ms, Micro{
			Name: fmt.Sprintf("ForwardIndexed/indexed/window=%d", w),
			F:    func(b *testing.B) { ForwardWindow(b, false, w) },
		})
	}
	for _, w := range []int{64, 512, 4096} {
		w := w
		ms = append(ms, Micro{
			Name: fmt.Sprintf("CascadeIndexed/window=%d", w),
			F:    func(b *testing.B) { CascadeWindow(b, w) },
		})
	}
	for _, w := range []int{64, 512, 4096} {
		w := w
		ms = append(ms, Micro{
			Name: fmt.Sprintf("GeneralIndexed/set/indexed/window=%d", w),
			F:    func(b *testing.B) { GeneralSetWindow(b, false, w) },
		})
	}
	for _, n := range []int{8, 32, 128} {
		for _, w := range []int{64, 512, 4096} {
			n, w := n, w
			ms = append(ms, Micro{
				Name: fmt.Sprintf("CascadeBatch/batch=%d/window=%d", n, w),
				F:    func(b *testing.B) { CascadeBatchWindow(b, n, w) },
			})
		}
	}
	return ms
}

// benchSetAdd measures one guarded Add per iteration on keys cycling
// through a small window, transaction per op via the pool.
func benchSetAdd(b *testing.B, s intset.Set) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		if _, err := s.Add(tx, int64(i%1024)); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// DetectorAbslockRW: synthesized read/write abstract locks (figure 3's
// spec) guarding a hash set.
func DetectorAbslockRW(b *testing.B) {
	benchSetAdd(b, intset.NewRWLocked(intset.NewHashRep()))
}

// DetectorGlobalLock: the ⊥ spec — one global exclusive lock.
func DetectorGlobalLock(b *testing.B) {
	benchSetAdd(b, intset.NewGlobalLock(intset.NewHashRep()))
}

// DetectorLiberalLock: the footnote-6 guarded-mode scheme implementing
// figure 2 with locks.
func DetectorLiberalLock(b *testing.B) {
	benchSetAdd(b, intset.NewLiberalLocked(intset.NewHashRep()))
}

// DetectorForwardGatekeeper: the forward gatekeeper running figure 2's
// precise set spec.
func DetectorForwardGatekeeper(b *testing.B) {
	benchSetAdd(b, intset.NewGatekept(intset.NewHashRep()))
}

// DetectorCascadeGatekeeper: the lattice cascade running figure 2's
// precise set spec. The steady state is disjoint-key, so nearly every
// iteration is a stage-1 signature-filter admission with zero locks
// taken by the detector.
func DetectorCascadeGatekeeper(b *testing.B) {
	benchSetAdd(b, intset.NewCascaded(intset.NewHashRep()))
}

// benchSetAddBatch is benchSetAdd through the batched admission
// pipeline: each group of `batch` adds shares one representation lock
// acquisition, one combined signature probe, and one group commit, so
// the per-operation cost reported is the amortized batch cost. Keys
// cycle through the same 1024-element window as benchSetAdd — the
// steady state is disjoint-key, whole-batch admission.
func benchSetAddBatch(b *testing.B, s *intset.CascadeSet, batch int) {
	b.Helper()
	var cache engine.TxCache
	txs := make([]*engine.Tx, batch)
	xs := make([]int64, batch)
	rets := make([]bool, batch)
	errs := make([]error, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		cache.GetBatch(txs[:n])
		for k := 0; k < n; k++ {
			xs[k] = int64((i + k) & 1023)
		}
		s.AddBatch(txs[:n], xs[:n], rets[:n], errs[:n])
		for k := 0; k < n; k++ {
			if errs[k] != nil {
				b.Fatal(errs[k])
			}
		}
		cache.PutBatch(txs[:n])
		i += n
	}
}

// DetectorCascadeBatch8/32/128: DetectorCascadeGatekeeper through the
// batched admission path at fixed batch sizes. The acceptance target is
// DetectorCascadeBatch32 at ≥2× the serial cascade's throughput.
func DetectorCascadeBatch8(b *testing.B) {
	benchSetAddBatch(b, intset.NewCascaded(intset.NewHashRep()), 8)
}

func DetectorCascadeBatch32(b *testing.B) {
	benchSetAddBatch(b, intset.NewCascaded(intset.NewHashRep()), 32)
}

func DetectorCascadeBatch128(b *testing.B) {
	benchSetAddBatch(b, intset.NewCascaded(intset.NewHashRep()), 128)
}

// pairBenchSpec is a two-key workload: link(x, y) commutes with another
// link only when both positions differ, so each admission publishes two
// keys.
func pairBenchSpec() *core.Spec {
	sig := &core.ADTSig{Name: "graphbench", Methods: []core.MethodSig{
		{Name: "link", Params: []string{"x", "y"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	s.Set("link", "link", core.And(
		core.Ne(core.Arg1(0), core.Arg2(0)),
		core.Ne(core.Arg1(1), core.Arg2(1))))
	return s
}

// DetectorCascadePairSerial: the two-key spec through a plain cascade,
// one thread — the cascade's cost when every admission publishes and
// probes two keys.
func DetectorCascadePairSerial(b *testing.B) {
	c, err := gatekeeper.NewCascade(pairBenchSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	exec := func() gatekeeper.Effect { return gatekeeper.Effect{Ret: core.VBool(true)} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		x := int64(i & 1023)
		y := int64(4096 + (i & 1023))
		if _, err := c.Invoke(tx, "link", core.Args2(core.VInt(x), core.VInt(y)), exec); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

func benchUnionFind(b *testing.B, uf unionfind.Sets) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := engine.GetTx()
		if _, err := uf.Union(tx, int64(i%(1<<15)), int64(i%(1<<15))+1); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// DetectorGeneralGatekeeper: the hand-built general gatekeeper for
// union-find (undo/redo journal, rollback checks).
func DetectorGeneralGatekeeper(b *testing.B) {
	benchUnionFind(b, unionfind.NewGK(1<<16))
}

// DetectorUnionFindGeneric: the spec-interpreting generic gatekeeper —
// ablation against the concrete one above (same conditions, different
// machinery).
func DetectorUnionFindGeneric(b *testing.B) {
	benchUnionFind(b, unionfind.NewGeneric(1<<16))
}

// DetectorUnionFindML: union-find under abstract locks.
func DetectorUnionFindML(b *testing.B) {
	benchUnionFind(b, unionfind.NewML(1<<16))
}

// DetectorForwardGatekeeperTraced is DetectorForwardGatekeeper with the
// telemetry event trace enabled (unsampled): the cost of instrumented
// speculation, which must stay at 0 allocs/op.
func DetectorForwardGatekeeperTraced(b *testing.B) {
	telemetry.EnableTrace(1<<12, 1)
	defer telemetry.DisableTrace()
	benchSetAdd(b, intset.NewGatekept(intset.NewHashRep()))
}

// DetectorCascadeGatekeeperTraced is DetectorCascadeGatekeeper with the
// telemetry event trace enabled (unsampled).
func DetectorCascadeGatekeeperTraced(b *testing.B) {
	telemetry.EnableTrace(1<<12, 1)
	defer telemetry.DisableTrace()
	benchSetAdd(b, intset.NewCascaded(intset.NewHashRep()))
}

// DetectorGeneralGatekeeperTraced is DetectorGeneralGatekeeper with the
// telemetry event trace enabled (unsampled).
func DetectorGeneralGatekeeperTraced(b *testing.B) {
	telemetry.EnableTrace(1<<12, 1)
	defer telemetry.DisableTrace()
	benchUnionFind(b, unionfind.NewGK(1<<16))
}

// withLatency runs a micro-benchmark with the stage-latency histograms
// and the flight recorder both enabled: the fully instrumented
// admission cost. Like the traced rows, instrumented admissions must
// stay at 0 allocs/op — stage marks are atomic adds into fixed arrays
// and flight records are stack-built into pre-sized rings.
func withLatency(b *testing.B, f func(*testing.B)) {
	b.Helper()
	telemetry.EnableLatency()
	telemetry.EnableFlight(1 << 10)
	defer telemetry.DisableLatency()
	defer telemetry.DisableFlight()
	f(b)
}

// DetectorForwardGatekeeperLatency is DetectorForwardGatekeeper with
// latency attribution and the flight recorder on.
func DetectorForwardGatekeeperLatency(b *testing.B) {
	withLatency(b, DetectorForwardGatekeeper)
}

// DetectorCascadeGatekeeperLatency is DetectorCascadeGatekeeper with
// latency attribution and the flight recorder on — the instrumented
// fast path (one clock read and one histogram add per admission).
func DetectorCascadeGatekeeperLatency(b *testing.B) {
	withLatency(b, DetectorCascadeGatekeeper)
}

// DetectorCascadeBatch32Latency is DetectorCascadeBatch32 with latency
// attribution and the flight recorder on — publish/probe phase marks
// plus one group flight record per batch.
func DetectorCascadeBatch32Latency(b *testing.B) {
	withLatency(b, DetectorCascadeBatch32)
}

// TelemetryLatencyObserve measures one enabled stage observation — the
// clock read plus two atomic adds every instrumented stage boundary
// pays.
func TelemetryLatencyObserve(b *testing.B) {
	telemetry.EnableLatency()
	defer telemetry.DisableLatency()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := telemetry.LatClock()
		telemetry.StageObserve(i&7, telemetry.StageSigFilter, t0)
	}
}

// TelemetryFlightRecord measures one enabled flight-record append: a
// stack-built record copied into the worker's ring slot.
func TelemetryFlightRecord(b *testing.B) {
	telemetry.EnableFlight(1 << 10)
	defer telemetry.DisableFlight()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := telemetry.FlightRecord{Tx: uint64(i), Verdict: telemetry.FlightAdmitted}
		rec.Mark(telemetry.StageSigFilter, 64)
		//commvet:ignore benchmark measures the enabled path; a gate here would measure the gate
		telemetry.RecordFlight(i&7, &rec)
	}
}

// TelemetryEmit measures one enabled ring-buffer event emission — the
// marginal cost tracing adds to every lifecycle edge.
func TelemetryEmit(b *testing.B) {
	telemetry.EnableTrace(1<<12, 1)
	defer telemetry.DisableTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		//commvet:ignore benchmark measures the enabled path; a gate here would measure the gate
		telemetry.Emit(i&7, telemetry.EvBegin, uint64(i), int64(i), 0, 0, 0)
	}
}

// CondEval: one interpreted evaluation of figure 2's add/contains
// condition.
func CondEval(b *testing.B) {
	cond := intset.PreciseSpec().Cond("add", "contains")
	env := &core.PairEnv{
		Inv1: core.NewInvocation("add", []core.Value{core.V(int64(1))}, core.VBool(true)),
		Inv2: core.NewInvocation("contains", []core.Value{core.V(int64(2))}, core.VBool(false)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Eval(cond, env); err != nil {
			b.Fatal(err)
		}
	}
}

// ForwardWindow measures one forward-gatekept add against `window`
// active adds on distinct keys. Indexed probes miss in O(1); with the
// index disabled every active entry is scanned.
func ForwardWindow(b *testing.B, disable bool, window int) {
	b.Helper()
	g, err := gatekeeper.NewForwardConfig(intset.PreciseSpec(), nil,
		gatekeeper.Config{DisableIndex: disable})
	if err != nil {
		b.Fatal(err)
	}
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(1); i <= int64(window); i++ {
		if _, err := g.Invoke(holder, "add", core.Args1(core.VInt(-i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Fatal(err)
		}
	}
	base := int64(1) << 40
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		k := base | int64(n&8191)
		if _, err := g.Invoke(tx, "add", core.Args1(core.VInt(k)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// GeneralSetWindow is ForwardWindow's shape under the general
// gatekeeper: same spec, but every check replays through the undo/redo
// journal machinery.
func GeneralSetWindow(b *testing.B, disable bool, window int) {
	b.Helper()
	g, err := gatekeeper.NewGeneralConfig(intset.PreciseSpec(), nil,
		gatekeeper.Config{DisableIndex: disable})
	if err != nil {
		b.Fatal(err)
	}
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(1); i <= int64(window); i++ {
		if _, err := g.Invoke(holder, "add", core.Args1(core.VInt(-i)), func() gatekeeper.GEffect {
			return gatekeeper.GEffect{Ret: core.VBool(true)}
		}); err != nil {
			b.Fatal(err)
		}
	}
	base := int64(1) << 40
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		k := base | int64(n&8191)
		if _, err := g.Invoke(tx, "add", core.Args1(core.VInt(k)), func() gatekeeper.GEffect {
			return gatekeeper.GEffect{Ret: core.VBool(true)}
		}); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// CascadeWindow measures one cascade-guarded add against `window`
// active adds on distinct keys: the incoming key's filter cell is
// empty, so every iteration is a stage-1 admission regardless of the
// window size — the cascade's answer to ForwardWindow.
func CascadeWindow(b *testing.B, window int) {
	b.Helper()
	c, err := gatekeeper.NewCascade(intset.PreciseSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(1); i <= int64(window); i++ {
		if _, err := c.Invoke(holder, "add", core.Args1(core.VInt(-i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Fatal(err)
		}
	}
	base := int64(1) << 40
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		k := base | int64(n&8191)
		if _, err := c.Invoke(tx, "add", core.Args1(core.VInt(k)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// CascadeBatchWindow is CascadeWindow through the batched admission
// path: `window` active adds on distinct negative keys stay live while
// batches of `batch` disjoint positive keys admit and group-commit.
// Like CascadeWindow, the incoming cells are empty, so every batch
// admits whole on the combined-signature probe and the cost stays flat
// in the window.
func CascadeBatchWindow(b *testing.B, batch, window int) {
	b.Helper()
	c, err := gatekeeper.NewCascade(intset.PreciseSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	holder := engine.NewTx()
	defer holder.Commit()
	for i := int64(1); i <= int64(window); i++ {
		if _, err := c.Invoke(holder, "add", core.Args1(core.VInt(-i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Fatal(err)
		}
	}
	exec := func(run []gatekeeper.BatchOp) {
		for k := range run {
			run[k].Ret = core.VBool(true)
		}
	}
	base := int64(1) << 40
	var cache engine.TxCache
	ops := make([]gatekeeper.BatchOp, batch)
	txs := make([]*engine.Tx, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		cache.GetBatch(txs[:n])
		for k := 0; k < n; k++ {
			ops[k] = gatekeeper.BatchOp{
				Tx:     txs[k],
				Method: "add",
				Args:   core.Args1(core.VInt(base | int64((i+k)&8191))),
			}
		}
		p := c.InvokeBatch(ops[:n], exec)
		if p != n {
			b.Fatalf("batch admitted %d of %d disjoint keys", p, n)
		}
		engine.CommitBatch(txs[:n])
		cache.PutBatch(txs[:n])
		i += n
	}
}

// CascadeSlowPath forces every iteration through all three cascade
// stages: the incoming add reuses a key held by an active add, so the
// filter hits, the optimistic bucket scan surfaces the holder's slot,
// and the precise checker admits (both adds returned false).
func CascadeSlowPath(b *testing.B) {
	c, err := gatekeeper.NewCascade(intset.PreciseSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	holder := engine.NewTx()
	defer holder.Commit()
	const window = 64
	for i := int64(0); i < window; i++ {
		if _, err := c.Invoke(holder, "add", core.Args1(core.VInt(i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(false)}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		if _, err := c.Invoke(tx, "add", core.Args1(core.VInt(int64(n)%window)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(false)}
		}); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}

// scanFallbackSpec is a specification whose pair condition is ordered
// (Lt), which the disequality decomposition cannot index: every check
// takes the forward gatekeeper's scan-fallback path.
func scanFallbackSpec() *core.Spec {
	sig := &core.ADTSig{Name: "ordered", Methods: []core.MethodSig{
		{Name: "op", Params: []string{"x"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	s.Set("op", "op", core.Lt(core.Arg1(0), core.Arg2(0)))
	return s
}

// ForwardScanFallback measures one forward-gatekept invocation whose
// pair condition misses the disequality index: 64 active entries are
// scanned and precisely checked per op — the cost the index normally
// avoids, isolated.
func ForwardScanFallback(b *testing.B) {
	g, err := gatekeeper.NewForward(scanFallbackSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	holder := engine.NewTx()
	defer holder.Commit()
	const window = 64
	for i := int64(0); i < window; i++ {
		if _, err := g.Invoke(holder, "op", core.Args1(core.VInt(i)), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Fatal(err)
		}
	}
	base := int64(1) << 40
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		tx := engine.GetTx()
		if _, err := g.Invoke(tx, "op", core.Args1(core.VInt(base+int64(n&1023))), func() gatekeeper.Effect {
			return gatekeeper.Effect{Ret: core.VBool(true)}
		}); err != nil {
			b.Error(err)
		}
		tx.Commit()
		engine.PutTx(tx)
	}
}
