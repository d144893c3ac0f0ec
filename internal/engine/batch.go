package engine

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"commlat/internal/telemetry"
)

// BatchSizer picks how many items each worker drains per PopBatch and
// observes the outcome, so an adaptive policy can grow batches while
// conflicts are rare and shrink them when speculation starts wasting
// work. Implementations must be safe for concurrent use: one sizer is
// shared by all workers of a run.
type BatchSizer interface {
	// Size returns the batch size for the next batch (>= 1).
	Size() int
	// Observe reports one finished batch: how many of its items
	// committed on the batched first attempt and how many had to retry
	// after a conflict.
	Observe(committed, conflicts int)
}

// BatchBody processes one batch of items: txs[i] is a fresh active
// transaction for items[i], and the body records each item's outcome in
// errs[i] (pre-cleared to nil). The contract mirrors the batched
// detector path it is meant to wrap (e.g. intset.CascadeSet.AddBatch):
//
//   - errs[i] == nil: the body finished the item AND committed txs[i]
//     (group commits via CommitBatch encouraged — that is the point).
//   - errs[i] satisfies IsConflict: txs[i] is still active; the
//     executor aborts it and retries the item with backoff.
//   - any other errs[i]: txs[i] is still active; the executor aborts it
//     and cancels the whole run with that error.
//
// The returned error cancels the run directly (items with nil errs are
// still treated as committed). The body must not retain or recycle the
// transactions; the executor returns every shell to the pool.
type BatchBody[T any] func(txs []*Tx, items []T, wl *Worklist[T], errs []error) error

// RunBatched is Run's batch-mode twin: workers drain the worklist in
// batches (Worklist.PopBatch — one shard-lock acquisition per batch)
// and hand each batch with a matching set of fresh transactions to
// body. Items the body reports as conflicted are retried one at a time
// with the same randomized backoff as Run, so a batch of transient
// conflicts degrades to the serial loop instead of livelocking the
// whole batch. Batch size comes from opts.Sizer when set, else
// opts.BatchSize.
func RunBatched[T any](wl *Worklist[T], opts Options, body BatchBody[T]) (Stats, error) {
	start := time.Now()
	var stats Stats
	var rc runCounters
	nw := opts.workers()
	errc := make(chan error, nw)
	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(opts.Seed), uint64(w)))
			my := wl.forWorker(w)
			var bw batchWorker[T]
			for !stop.Load() {
				n := opts.batchSize()
				if opts.Sizer != nil {
					n = opts.Sizer.Size()
				}
				if n < 1 {
					n = 1
				}
				bw.grow(n)
				m, finished := my.PopBatch(bw.items[:n])
				if m == 0 {
					if finished {
						return
					}
					runtime.Gosched()
					continue
				}
				err := bw.run(my, w, m, body, rng, opts, &rc)
				my.doneN(m)
				if err != nil {
					stop.Store(true)
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Committed = rc.committed.Load()
	stats.Aborts = rc.aborts.Load()
	stats.Busy = time.Duration(rc.busyNS.Load())
	stats.MaxedBackoffRetries = rc.maxed.Load()
	stats.Elapsed = time.Since(start)
	close(errc)
	var errs []error
	for err := range errc {
		errs = append(errs, err)
	}
	return stats, errors.Join(errs...)
}

// TxCache is a worker-local cache of transaction shells for batch
// loops. GetBatch reserves the whole batch's IDs with one atomic add
// and counts all the begins with one telemetry update, recycling
// shells through a private freelist instead of the shared pool — the
// per-transaction synchronization of GetTx/PutTx amortized across the
// batch. Not safe for concurrent use; each worker owns one.
type TxCache struct{ free []*Tx }

// GetBatch fills txs with fresh active transactions.
func (tc *TxCache) GetBatch(txs []*Tx) {
	n := len(txs)
	if n == 0 {
		return
	}
	base := txIDs.Add(uint64(n)) - uint64(n)
	for i := range txs {
		var tx *Tx
		if k := len(tc.free); k > 0 {
			tx, tc.free[k-1] = tc.free[k-1], nil
			tc.free = tc.free[:k-1]
		} else {
			tx = txPool.Get().(*Tx)
		}
		tx.id = base + uint64(i) + 1
		tx.status = Active
		tx.worker = 0
		tx.item = -1
		txs[i] = tx
	}
	telemetry.CountTxBeginN(n)
}

// PutBatch recycles a batch of finished transactions into the cache.
func (tc *TxCache) PutBatch(txs []*Tx) {
	for _, tx := range txs {
		if tx.status == Active {
			panic("engine: PutBatch on an active transaction")
		}
	}
	tc.free = append(tc.free, txs...)
}

// batchWorker is one worker's reusable batch buffers.
type batchWorker[T any] struct {
	items []T
	txs   []*Tx
	errs  []error
	cache TxCache
}

func (bw *batchWorker[T]) grow(n int) {
	if cap(bw.items) < n {
		bw.items = make([]T, n)
		bw.txs = make([]*Tx, n)
		bw.errs = make([]error, n)
	}
}

// run processes one popped batch: first attempt through body as a
// group, then per-item abort-and-retry for the conflicted remainder.
func (bw *batchWorker[T]) run(wl *Worklist[T], w, m int, body BatchBody[T],
	rng *rand.Rand, opts Options, rc *runCounters) error {
	t0 := time.Now()
	defer func() { rc.busyNS.Add(int64(time.Since(t0))) }()
	txs, items, errs := bw.txs[:m], bw.items[:m], bw.errs[:m]
	bw.cache.GetBatch(txs)
	for i := 0; i < m; i++ {
		txs[i].SetWorker(w)
		if telemetry.TraceEnabled() {
			txs[i].SetItem(itemKey(items[i]))
			telemetry.Emit(w, telemetry.EvBegin, txs[i].ID(), txs[i].Item(), 0, 0, 0)
		}
		errs[i] = nil
	}
	fatal := body(txs, items, wl, errs)
	committed, conflicts := 0, 0
	for i := 0; i < m; i++ {
		if errs[i] == nil {
			committed++
			continue
		}
		txs[i].Abort()
		if !IsConflict(errs[i]) && fatal == nil {
			fatal = errs[i]
		}
		conflicts++
	}
	bw.cache.PutBatch(txs)
	rc.committed.Add(uint64(committed))
	if opts.Sizer != nil {
		opts.Sizer.Observe(committed, conflicts)
	}
	if fatal != nil {
		return fatal
	}
	if conflicts == 0 {
		return nil
	}
	// Retry pass: conflicted items go one at a time, each as a batch of
	// one, with the serial loop's randomized exponential backoff.
	for i := 0; i < m; i++ {
		if errs[i] == nil {
			continue
		}
		if !IsConflict(errs[i]) {
			continue // already surfaced as fatal above
		}
		if err := bw.retryOne(wl, w, items[i], errs[i], body, rng, opts, rc); err != nil {
			return err
		}
	}
	return nil
}

func (bw *batchWorker[T]) retryOne(wl *Worklist[T], w int, item T, first error,
	body BatchBody[T], rng *rand.Rand, opts Options, rc *runCounters) error {
	var oneTx [1]*Tx
	var oneItem [1]T
	var oneErr [1]error
	rc.aborts.Add(1) // the failed batch attempt
	backoff := time.Microsecond
	for retries := 0; ; retries++ {
		if opts.MaxRetries > 0 && retries >= opts.MaxRetries {
			return fmt.Errorf("engine: item retried %d times without committing: %w", retries, first)
		}
		if backoff >= opts.maxBackoff() {
			rc.maxed.Add(1)
		}
		d := time.Duration(rng.Int64N(int64(backoff) + 1))
		time.Sleep(d)
		if backoff < opts.maxBackoff() {
			backoff *= 2
		}
		tx := GetTx()
		tx.SetWorker(w)
		if telemetry.TraceEnabled() {
			tx.SetItem(itemKey(item))
			telemetry.Emit(w, telemetry.EvBegin, tx.ID(), tx.Item(), 0, 0, 0)
		}
		oneTx[0], oneItem[0], oneErr[0] = tx, item, nil
		fatal := body(oneTx[:], oneItem[:], wl, oneErr[:])
		if oneErr[0] == nil {
			PutTx(tx)
			rc.committed.Add(1)
			return fatal
		}
		tx.Abort()
		PutTx(tx)
		if fatal != nil {
			return fatal
		}
		if !IsConflict(oneErr[0]) {
			return oneErr[0]
		}
		first = oneErr[0]
		rc.aborts.Add(1)
	}
}

// RunItemsBatched is RunBatched over a fresh worklist seeded from items.
func RunItemsBatched[T any](items []T, opts Options, body BatchBody[T]) (Stats, error) {
	return RunBatched(NewWorklist(items...), opts, body)
}
