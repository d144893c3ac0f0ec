package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"commlat/internal/adt/flowgraph"
	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/apps/boruvka"
	"commlat/internal/apps/cluster"
	"commlat/internal/apps/preflow"
	"commlat/internal/bench"
	"commlat/internal/engine"
	"commlat/internal/parameter"
	"commlat/internal/workload"
)

// app is one paper application prepared for repeated closed-batch runs
// over one generated input. A guarded run is gen, build, run, check.
type app interface {
	// gen generates the input from the workload seed.
	gen()
	// build constructs a fresh guarded ADT over the generated input.
	build()
	// seq runs the plain sequential reference on its own copy of the
	// input, records the reference result and returns the time the
	// reference computation took (input generation excluded).
	seq() time.Duration
	// run executes the guarded program over the built ADT with w workers
	// (the overlap window on set-gk). With l set it drives the program
	// through the timing wrappers instead of the plain public entry point.
	run(w int, l *layers) (engine.Stats, error)
	// check compares the last guarded run's output with the reference.
	check() error
	// profile runs the app's ParaMeter-style round profile once.
	profile() (parameter.Result, error)
}

// engineSeed seeds the executor's backoff randomization. It is fixed so
// that the workload seed reaches only the input generators.
const engineSeed = 1

// rmfCap is every inter-frame capacity of the GENRMF network. With
// capacities drawn at random the discharge count varies fivefold between
// seeds; with one capacity the seed changes only the frame matchings and
// the work varies by a few percent.
const rmfCap = 1000

type preflowApp struct {
	a, b int
	// seqReps is how many times seq repeats the reference, so the timed
	// phase is long enough to measure steadily.
	seqReps int
	seed    int64
	net     *flowgraph.Net
	g       *flowgraph.Graph
	ref     int64
	flow    int64
}

func (p *preflowApp) gen()   { p.net = workload.GenRMF(p.a, p.b, rmfCap, rmfCap, p.seed) }
func (p *preflowApp) build() { p.g = flowgraph.NewExclusive(p.net) }

func (p *preflowApp) seq() time.Duration {
	nets := make([]*flowgraph.Net, p.seqReps)
	for i := range nets {
		nets[i] = workload.GenRMF(p.a, p.b, rmfCap, rmfCap, p.seed)
	}
	t0 := time.Now()
	for _, n := range nets {
		p.ref = preflow.Sequential(n)
	}
	return time.Since(t0) / time.Duration(p.seqReps)
}

func (p *preflowApp) run(w int, l *layers) (engine.Stats, error) {
	opts := engine.Options{Workers: w, Seed: engineSeed}
	if l == nil {
		flow, st, err := preflow.Run(p.g, opts)
		p.flow = flow
		return st, err
	}
	// preflow.Run's loop is private; this mirrors it over the public
	// Net and Discharge API so each discharge can be timed.
	net := p.g.Net()
	src, sink := net.Source(), net.Sink()
	net.SetHeight(src, int64(net.Len()))
	var active []int64
	arcs := net.Arcs(src)
	for i := range arcs {
		if arcs[i].Cap <= 0 {
			continue
		}
		v, amt := int64(arcs[i].To), arcs[i].Cap
		net.AddExcess(src, amt)
		if err := net.Push(src, i, amt); err != nil {
			return engine.Stats{}, err
		}
		if v != sink {
			active = append(active, v)
		}
	}
	st, err := engine.Run(engine.NewWorklist(active...), opts,
		func(tx *engine.Tx, u int64, wl *engine.Worklist[int64]) error {
			t0 := time.Now()
			_, err := preflow.Discharge(tx, p.g, u, func(v int64) { wl.Push(v) })
			l.body(tx, t0, err)
			return err
		})
	p.flow = net.Excess(sink)
	return st, err
}

func (p *preflowApp) check() error {
	if p.flow != p.ref {
		return fmt.Errorf("preflow-ex: flow %d, sequential %d", p.flow, p.ref)
	}
	return nil
}

func (p *preflowApp) profile() (parameter.Result, error) {
	g := flowgraph.NewExclusive(workload.GenRMF(p.a, p.b, rmfCap, rmfCap, p.seed))
	res, err := preflow.Profile(g)
	if err == nil && res.Flow != p.ref {
		err = fmt.Errorf("preflow-ex profile: flow %d, sequential %d", res.Flow, p.ref)
	}
	return res.Result, err
}

// weightTol is the relative tolerance on the MST weight: the float sum
// depends on the order edges commit in, which varies with the schedule.
const weightTol = 1e-9

type boruvkaApp struct {
	side    int
	seqReps int
	seed    int64
	nodes   int
	edges   []workload.Edge
	uf      unionfind.Sets
	refW    float64
	refE    int
	res     boruvka.Result
}

func (b *boruvkaApp) gen()   { b.nodes, b.edges = workload.Mesh(b.side, b.side, b.seed) }
func (b *boruvkaApp) build() { b.uf = unionfind.NewGK(b.nodes) }

func (b *boruvkaApp) seq() time.Duration {
	nodes, edges := workload.Mesh(b.side, b.side, b.seed)
	t0 := time.Now()
	for range b.seqReps {
		b.refW, b.refE = boruvka.Sequential(nodes, edges)
	}
	return time.Since(t0) / time.Duration(b.seqReps)
}

func (b *boruvkaApp) run(w int, l *layers) (engine.Stats, error) {
	uf := b.uf
	if l != nil {
		uf = tracedSets{uf, l}
	}
	res, err := boruvka.Run(uf, b.nodes, b.edges, engine.Options{Workers: w, Seed: engineSeed})
	b.res = res
	return res.Stats, err
}

func (b *boruvkaApp) check() error {
	return checkMST(b.res.Weight, b.res.Edges, b.refW, b.refE)
}

func checkMST(w float64, e int, refW float64, refE int) error {
	if e != refE || math.Abs(w-refW) > weightTol*math.Abs(refW) {
		return fmt.Errorf("boruvka-ufgk: MST %d edges weight %v, sequential %d edges weight %v", e, w, refE, refW)
	}
	return nil
}

func (b *boruvkaApp) profile() (parameter.Result, error) {
	res, err := boruvka.Profile(unionfind.NewGK(b.nodes), b.nodes, b.edges)
	if err == nil {
		err = checkMST(res.Weight, res.Edges, b.refW, b.refE)
	}
	return res.Result, err
}

type clusterApp struct {
	n       int
	seqReps int
	seed    int64
	pts     []kdtree.Point
	idx     kdtree.Index
	ref     int
	merges  int
}

func (c *clusterApp) gen()   { c.pts = workload.RandomPoints(c.n, 1000, c.seed) }
func (c *clusterApp) build() { c.idx = kdtree.NewGK() }

func (c *clusterApp) seq() time.Duration {
	pts := workload.RandomPoints(c.n, 1000, c.seed)
	t0 := time.Now()
	for range c.seqReps {
		c.ref = len(cluster.Sequential(pts).Merges())
	}
	return time.Since(t0) / time.Duration(c.seqReps)
}

func (c *clusterApp) run(w int, l *layers) (engine.Stats, error) {
	opts := engine.Options{Workers: w, Seed: engineSeed}
	if l == nil {
		_, res, err := cluster.Run(c.idx, c.pts, opts)
		c.merges = res.Merges
		return res.Stats, err
	}
	// cluster.Run mirrored over the public Step API, so each step and
	// each kd-tree call can be timed.
	idx := tracedIndex{c.idx, l}
	idx.Seed(c.pts)
	d := &cluster.Dendrogram{}
	st, err := engine.Run(engine.NewWorklist(c.pts...), opts,
		func(tx *engine.Tx, p kdtree.Point, wl *engine.Worklist[kdtree.Point]) error {
			t0 := time.Now()
			_, err := cluster.Step(tx, idx, d, p, func(q kdtree.Point) { wl.Push(q) })
			l.body(tx, t0, err)
			return err
		})
	c.merges = len(d.Merges())
	return st, err
}

func (c *clusterApp) check() error {
	if c.merges != c.n-1 || c.ref != c.n-1 {
		return fmt.Errorf("cluster-kdgk: %d merges, sequential %d, want %d", c.merges, c.ref, c.n-1)
	}
	return nil
}

// profilePoints caps the points the clustering profile runs on. Each
// profile round holds every pending iteration open at once, so a round
// costs time quadratic in the points; the parallelism of a prefix still
// shows whether a exceeds the worker count, which is all the model uses.
const profilePoints = 3000

func (c *clusterApp) profile() (parameter.Result, error) {
	pts := c.pts[:min(len(c.pts), profilePoints)]
	res, err := cluster.Profile(kdtree.NewGK(), pts)
	if err == nil && res.Merges != len(pts)-1 {
		err = fmt.Errorf("cluster-kdgk profile: %d merges, want %d", res.Merges, len(pts)-1)
	}
	return res.Result, err
}

type setApp struct {
	n, k    int
	seqReps int
	seed    int64
	ops     []workload.SetOp
	set     *intset.GatekeptSet
	ref     []int64
	hits    int // sequential Contains hits, kept so the lookups stay live
}

func (s *setApp) gen()   { s.ops = workload.SetOpsClasses(s.n, s.k, s.seed) }
func (s *setApp) build() { s.set = intset.NewGatekept(intset.NewHashRep()) }

func (s *setApp) seq() time.Duration {
	ops := workload.SetOpsClasses(s.n, s.k, s.seed)
	t0 := time.Now()
	var rep *intset.HashRep
	for range s.seqReps {
		rep = intset.NewHashRep()
		for _, op := range ops {
			if op.Add {
				rep.Add(op.X)
			} else if rep.Contains(op.X) {
				s.hits++
			}
		}
	}
	d := time.Since(t0) / time.Duration(s.seqReps)
	s.ref = rep.Elems()
	return d
}

func (s *setApp) run(w int, l *layers) (engine.Stats, error) {
	var set intset.Set = s.set
	if l != nil {
		set = tracedSet{set, l}
	}
	st, _, err := bench.RunSetMicro(set, s.ops, w)
	return st, err
}

func (s *setApp) check() error {
	got := s.set.Snapshot()
	slices.Sort(got)
	if !slices.Equal(got, s.ref) {
		return fmt.Errorf("set-gk: final set has %d elements, sequential %d (or differs)", len(got), len(s.ref))
	}
	return nil
}

// profile returns an empty profile: set-gk has no application profile,
// and a round scheduler over a million hot-key operations would not end
// in a benchmark's time. Its model metrics read 0.
func (s *setApp) profile() (parameter.Result, error) { return parameter.Result{}, nil }
