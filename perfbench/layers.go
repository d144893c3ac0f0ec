package main

import (
	"time"

	"commlat/internal/adt/intset"
	"commlat/internal/adt/kdtree"
	"commlat/internal/adt/unionfind"
	"commlat/internal/engine"
)

// Guarded-ADT methods the traced run times, one forwarding wrapper per
// ADT interface.
const (
	ufFind = iota
	ufUnion
	kdContains
	kdNearest
	kdAdd
	kdRemove
	setAdd
	setContains
	numMethods
)

var methodNames = [numMethods]string{
	"unionfind.Find", "unionfind.Union",
	"kdtree.Contains", "kdtree.Nearest", "kdtree.Add", "kdtree.Remove",
	"intset.Add", "intset.Contains",
}

// callStats accumulates the timed calls of one method (or of the app
// body) on one worker.
type callStats struct {
	hist      hist
	conflicts uint64
	totalNS   int64
	wastedNS  int64 // time of calls that returned a conflict
}

func (c *callStats) add(d time.Duration, err error) {
	c.hist.record(d)
	c.totalNS += int64(d)
	if engine.IsConflict(err) {
		c.conflicts++
		c.wastedNS += int64(d)
	}
}

func (c *callStats) merge(o *callStats) {
	c.hist.merge(&o.hist)
	c.conflicts += o.conflicts
	c.totalNS += o.totalNS
	c.wastedNS += o.wastedNS
}

// workerLayers is one worker's share of a traced run. Each worker writes
// only its own, so recording needs no synchronization; the executor's
// return orders every write before the caller reads.
type workerLayers struct {
	calls [numMethods]callStats
	body  callStats
}

// layers records the spans a traced run takes around calls into the
// app-body and ADT layers. The seed time is recorded by the caller's
// goroutine only.
type layers struct {
	w      []workerLayers
	seedNS int64
}

func newLayers(workers int) *layers { return &layers{w: make([]workerLayers, workers)} }

func (l *layers) call(tx *engine.Tx, m int, t0 time.Time, err error) {
	l.w[tx.Worker()].calls[m].add(time.Since(t0), err)
}

func (l *layers) body(tx *engine.Tx, t0 time.Time, err error) {
	l.w[tx.Worker()].body.add(time.Since(t0), err)
}

func (w *workerLayers) merge(o *workerLayers) {
	for m := range w.calls {
		w.calls[m].merge(&o.calls[m])
	}
	w.body.merge(&o.body)
}

// tracedSets forwards to a unionfind.Sets, timing each call.
type tracedSets struct {
	unionfind.Sets
	l *layers
}

func (s tracedSets) Find(tx *engine.Tx, a int64) (int64, error) {
	t0 := time.Now()
	r, err := s.Sets.Find(tx, a)
	s.l.call(tx, ufFind, t0, err)
	return r, err
}

func (s tracedSets) Union(tx *engine.Tx, a, b int64) (bool, error) {
	t0 := time.Now()
	ok, err := s.Sets.Union(tx, a, b)
	s.l.call(tx, ufUnion, t0, err)
	return ok, err
}

// tracedIndex forwards to a kdtree.Index, timing each call.
type tracedIndex struct {
	kdtree.Index
	l *layers
}

func (k tracedIndex) Contains(tx *engine.Tx, p kdtree.Point) (bool, error) {
	t0 := time.Now()
	ok, err := k.Index.Contains(tx, p)
	k.l.call(tx, kdContains, t0, err)
	return ok, err
}

func (k tracedIndex) Nearest(tx *engine.Tx, p kdtree.Point) (kdtree.Point, error) {
	t0 := time.Now()
	n, err := k.Index.Nearest(tx, p)
	k.l.call(tx, kdNearest, t0, err)
	return n, err
}

func (k tracedIndex) Add(tx *engine.Tx, p kdtree.Point) (bool, error) {
	t0 := time.Now()
	ok, err := k.Index.Add(tx, p)
	k.l.call(tx, kdAdd, t0, err)
	return ok, err
}

func (k tracedIndex) Remove(tx *engine.Tx, p kdtree.Point) (bool, error) {
	t0 := time.Now()
	ok, err := k.Index.Remove(tx, p)
	k.l.call(tx, kdRemove, t0, err)
	return ok, err
}

func (k tracedIndex) Seed(pts []kdtree.Point) {
	t0 := time.Now()
	k.Index.Seed(pts)
	k.l.seedNS += int64(time.Since(t0))
}

// tracedSet forwards to an intset.Set, timing each call.
type tracedSet struct {
	intset.Set
	l *layers
}

func (s tracedSet) Add(tx *engine.Tx, x int64) (bool, error) {
	t0 := time.Now()
	ok, err := s.Set.Add(tx, x)
	s.l.call(tx, setAdd, t0, err)
	return ok, err
}

func (s tracedSet) Contains(tx *engine.Tx, x int64) (bool, error) {
	t0 := time.Now()
	ok, err := s.Set.Contains(tx, x)
	s.l.call(tx, setContains, t0, err)
	return ok, err
}
