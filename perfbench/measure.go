package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"commlat/internal/engine"
	"commlat/internal/parameter"
	"commlat/internal/telemetry"
)

// workers are the guarded runs' worker counts (window sizes on set-gk),
// sized for a 2-CPU machine.
var workers = [2]int{1, 2}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool // toy-size inputs, for the smoke test
	// minRounds is the least number of rounds run, however long they take.
	minRounds int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phases holds the samples of one run's untraced phases.
type phases struct {
	setup, gen, build []float64 // seconds, one per guarded run
	seq, t1, t2       []float64 // seconds, one per round
	// allocMB is the MB one round's guarded runs allocated, 1-worker and
	// 2-worker together, so allocation on the abort path is counted.
	allocMB           []float64
	attempted, failed int
	errs              []error
}

// round runs one interleaved seq, t1, t2 round, forcing a GC before each
// timed phase so that machine drift and heap state hit every phase alike.
func (ph *phases) round(a app) {
	runtime.GC()
	ph.seq = append(ph.seq, a.seq().Seconds())
	var alloc uint64
	for _, w := range workers {
		ri := ph.guarded(a, w, nil, nil)
		alloc += ri.alloc
		if w == 1 {
			ph.t1 = append(ph.t1, ri.d.Seconds())
		} else {
			ph.t2 = append(ph.t2, ri.d.Seconds())
		}
	}
	ph.allocMB = append(ph.allocMB, float64(alloc)/1e6)
}

// runInfo is what one guarded run measured.
type runInfo struct {
	d       time.Duration
	alloc   uint64 // bytes allocated
	gcs     uint32
	pauseNS uint64
	st      engine.Stats
}

// guarded sets up and runs one guarded run with w workers and checks its
// output. A failed run is counted, never fatal. With prof set, the run
// (and only the run) is CPU-profiled into it.
func (ph *phases) guarded(a app, w int, l *layers, prof *bytes.Buffer) runInfo {
	runtime.GC()
	t0 := time.Now()
	a.gen()
	t1 := time.Now()
	a.build()
	t2 := time.Now()
	ph.gen = append(ph.gen, t1.Sub(t0).Seconds())
	ph.build = append(ph.build, t2.Sub(t1).Seconds())
	ph.setup = append(ph.setup, t2.Sub(t0).Seconds())

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	profiling := prof != nil && pprof.StartCPUProfile(prof) == nil
	start := time.Now()
	st, err := a.run(w, l)
	d := time.Since(start)
	if profiling {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)

	ph.attempted++
	if err == nil {
		err = a.check()
	}
	if err != nil {
		ph.failed++
		ph.errs = append(ph.errs, fmt.Errorf("w%d: %w", w, err))
	}
	return runInfo{
		d:       d,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		gcs:     m1.NumGC - m0.NumGC,
		pauseNS: m1.PauseTotalNs - m0.PauseTotalNs,
		st:      st,
	}
}

// endToEnd returns the end-to-end metrics of the untraced phases.
func (ph *phases) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":  {median(ph.setup), "s"},
		"seq_s":    {midMean(ph.seq), "s"},
		"t1_s":     {midMean(ph.t1), "s"},
		"t2_s":     {midMean(ph.t2), "s"},
		"alloc_mb": {midMean(ph.allocMB), "MB"},
		"ok_frac":  {float64(ph.attempted-ph.failed) / float64(ph.attempted), "frac"},
	}
}

// measure runs the configured workload for cfg.seconds and returns its
// result line.
func measure(cfg config) (result, error) {
	wl, ok := lookup(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	a := wl.make(cfg.seed, cfg.toy)
	ph := &phases{}
	var tr *traced
	if cfg.trace {
		tr = &traced{}
	}
	start := time.Now()
	var longest time.Duration
	for r := 0; r < cfg.minRounds || time.Since(start)+longest <= secondsDur(cfg.seconds); r++ {
		r0 := time.Now()
		ph.round(a)
		if tr != nil {
			tr.round(ph, a)
		}
		longest = max(longest, time.Since(r0))
	}
	if tr != nil {
		if err := tr.model(a); err != nil {
			ph.failed++
			ph.errs = append(ph.errs, fmt.Errorf("profile: %w", err))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds in %.1fs\n  seq %.4g\n  t1 %.4g\n  t2 %.4g\n  alloc %.4g\n  setup %.4g\n",
		cfg.workload, len(ph.seq), time.Since(start).Seconds(), ph.seq, ph.t1, ph.t2, ph.allocMB, ph.setup)
	for _, err := range ph.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
	}
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed}
	if tr != nil {
		res.Metrics = tr.metrics(ph)
	} else {
		res.Metrics = ph.endToEnd()
	}
	return res, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traced accumulates the per-layer records of a traced run.
type traced struct {
	rounds  int
	layers  [2]workerLayers
	seedNS  int64
	engine  [2][]engine.Stats
	gate    [2]gateCounts
	gcs     [2]uint32
	pauseNS [2]uint64
	cpu     [2]cpuShares
	t2      []float64 // traced t2 wall times
	prof    parameter.Result
}

// gateCounts sums the conflict-detection counters of the detectors a
// guarded run registered: gatekeepers and abstract-lock managers alike.
type gateCounts struct {
	checks, conflicts, probes, fallbackScans, rollbacks uint64
}

func detectorCount() int { return len(telemetry.Default.Snapshot().Detectors) }

func (g *gateCounts) addSince(first int) {
	dets := telemetry.Default.Snapshot().Detectors
	for _, d := range dets[min(first, len(dets)):] {
		g.checks += d.Checks
		g.conflicts += d.Conflicts
		g.probes += d.Probes
		g.fallbackScans += d.FallbackScans
		g.rollbacks += d.Rollbacks
	}
}

// round runs one traced guarded run per worker count, timing the layer
// calls, profiling CPU and reading the runtime and detector counters.
func (t *traced) round(ph *phases, a app) {
	t.rounds++
	for i, w := range workers {
		l := newLayers(w)
		first := detectorCount()
		var prof bytes.Buffer
		ri := ph.guarded(a, w, l, &prof)
		if err := t.cpu[i].add(prof.Bytes()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		}
		t.gate[i].addSince(first)
		t.gcs[i] += ri.gcs
		t.pauseNS[i] += ri.pauseNS
		t.engine[i] = append(t.engine[i], ri.st)
		for j := range l.w {
			t.layers[i].merge(&l.w[j])
		}
		t.seedNS += l.seedNS
		if w == 2 {
			t.t2 = append(t.t2, ri.d.Seconds())
		}
	}
}

func (t *traced) model(a app) error {
	var err error
	t.prof, err = a.profile()
	return err
}

// metrics returns the per-layer metrics. Counts and times are per
// guarded run, averaged over the traced rounds; percentiles pool every
// call. Layers a workload does not exercise read 0.
func (t *traced) metrics(ph *phases) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	perRun := func(v float64) float64 { return v / float64(t.rounds) }

	put("workload.gen_s", "s", median(ph.gen))
	put("adt.build_s", "s", median(ph.build))

	for i, w := range workers {
		p := fmt.Sprintf("w%d.", w)
		var commits, aborts, maxed, busy, elapsed float64
		for _, st := range t.engine[i] {
			commits += float64(st.Committed)
			aborts += float64(st.Aborts)
			maxed += float64(st.MaxedBackoffRetries)
			busy += st.Busy.Seconds()
			elapsed += st.Elapsed.Seconds()
		}
		put("engine."+p+"commits", "count", perRun(commits))
		put("engine."+p+"aborts", "count", perRun(aborts))
		put("engine."+p+"abort_frac", "frac", ratio(aborts, commits+aborts))
		put("engine."+p+"maxed_backoff", "count", perRun(maxed))
		// The overlap-window loop measures no busy time; its busy-derived
		// metrics read 0 rather than a fabricated idle share.
		var idle, util float64
		if busy > 0 {
			idle = float64(w)*elapsed - busy
			util = ratio(busy, float64(w)*elapsed)
		}
		put("engine."+p+"busy_s", "s", perRun(busy))
		put("engine."+p+"idle_s", "s", perRun(idle))
		put("engine."+p+"util", "frac", util)
		put("engine."+p+"busy_us_per_commit", "us", ratio(busy*1e6, commits))

		b := &t.layers[i].body
		put("app."+p+"body_us_p50", "us", b.hist.quantile(0.50)/1e3)
		put("app."+p+"body_us_p99", "us", b.hist.quantile(0.99)/1e3)
		put("app."+p+"wasted_s", "s", perRun(float64(b.wastedNS)/1e9))
		useful := 0.0
		if b.totalNS > 0 {
			useful = 1 - float64(b.wastedNS)/float64(b.totalNS)
		}
		put("app."+p+"useful_frac", "frac", useful)

		g := t.gate[i]
		put("gatekeeper."+p+"checks", "count", perRun(float64(g.checks)))
		put("gatekeeper."+p+"conflicts", "count", perRun(float64(g.conflicts)))
		put("gatekeeper."+p+"probes", "count", perRun(float64(g.probes)))
		put("gatekeeper."+p+"fallback_scans", "count", perRun(float64(g.fallbackScans)))
		put("gatekeeper."+p+"rollbacks", "count", perRun(float64(g.rollbacks)))

		put("runtime."+p+"gc_cycles", "count", perRun(float64(t.gcs[i])))
		put("runtime."+p+"gc_pause_ms", "ms", perRun(float64(t.pauseNS[i])/1e6))

		for _, c := range cpuClasses {
			put("cpu."+p+c+"_frac", "frac", t.cpu[i].share(c))
		}
	}

	for mi, name := range methodNames {
		w1, w2 := &t.layers[0].calls[mi], &t.layers[1].calls[mi]
		put(name+".calls", "count", perRun(float64(w2.hist.n)))
		put(name+".ns_p99", "ns", w2.hist.quantile(0.99))
		put(name+".conflicts", "count", perRun(float64(w2.conflicts)))
		put(name+".ns_p50", "ns", w1.hist.quantile(0.50))
	}
	// Seed runs once per traced guarded run, at each worker count.
	put("kdtree.Seed.s", "s", float64(t.seedNS)/1e9/float64(t.rounds*len(workers)))

	seq, t1, t2 := midMean(ph.seq), midMean(ph.t1), midMean(ph.t2)
	put("paper.overhead_x", "x", ratio(t1, seq))
	put("paper.scaling_x", "x", ratio(t1, t2))
	put("paper.speedup_x", "x", ratio(seq, t2))

	// §5 model: T·o/min(a,p) with T·o the measured single-worker time.
	var pred float64
	if t.prof.AvgParallelism > 0 {
		pred = t1 / min(t.prof.AvgParallelism, 2)
	}
	put("parameter.critical_path", "count", float64(t.prof.CriticalPath))
	put("parameter.avg_parallelism", "x", t.prof.AvgParallelism)
	put("model.pred_t2_s", "s", pred)
	put("model.gap_x", "x", ratio(t2, pred))
	put("trace.overhead_frac", "frac", ratio(midMean(t.t2)-t2, t2))
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
