package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	rtrace "runtime/trace"
	"sync"
	"sync/atomic"
	"time"

	"commlat/internal/telemetry"
)

// Stats summarizes a speculative run.
type Stats struct {
	Committed uint64        // iterations that committed
	Aborts    uint64        // abort/retry events
	Elapsed   time.Duration // wall-clock time of the run
	// Busy is the summed per-worker time spent inside iteration bodies
	// and commit/abort processing, excluding backoff sleeps and idle
	// steal attempts. Busy/(Workers*Elapsed) approximates utilization;
	// Busy/Committed is the paper's per-iteration overhead quantity.
	Busy time.Duration
	// MaxedBackoffRetries counts retries taken after backoff had already
	// saturated at Options.MaxBackoff — a high count relative to Aborts
	// means the backoff ceiling, not the detector, is pacing the run.
	MaxedBackoffRetries uint64
}

// AbortRatio returns aborts as a fraction of all attempts
// (commits + aborts), the quantity Table 2 reports as "Abort Ratio %".
func (s Stats) AbortRatio() float64 {
	total := s.Committed + s.Aborts
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// Options configures a speculative run.
type Options struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// MaxBackoff caps the randomized backoff after an abort. 0 means a
	// small default; backoff doubles per consecutive abort of the same
	// item up to this cap.
	MaxBackoff time.Duration
	// MaxRetries aborts the run with an error when a single item still
	// conflicts after this many retries, i.e. on its MaxRetries+1st
	// failed attempt (a livelock guard). 0 means unlimited.
	MaxRetries int
	// Seed seeds per-worker backoff randomization for reproducibility.
	Seed int64
	// BatchSize fixes the number of items RunBatched drains per
	// PopBatch; 0 means a default of 32. Ignored by Run.
	BatchSize int
	// Sizer, when set, adapts RunBatched's batch size between batches
	// (see BatchSizer); it overrides BatchSize. Ignored by Run.
	Sizer BatchSizer
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return 32
}

func (o Options) maxBackoff() time.Duration {
	if o.MaxBackoff > 0 {
		return o.MaxBackoff
	}
	return 100 * time.Microsecond
}

// Body is one speculative iteration: it operates on item through
// detector-guarded data structure wrappers, registering undo and release
// actions on tx as it goes. Returning an error satisfying IsConflict
// causes abort-and-retry; any other error cancels the whole run.
type Body[T any] func(tx *Tx, item T, wl *Worklist[T]) error

// Run drains the worklist with opts.Workers speculative workers, applying
// body to each item inside a fresh transaction. It is the Galois-style
// optimistic loop of the paper: conflicts roll the iteration back (inverse
// methods via the tx undo log) and the item is retried after randomized
// backoff. Each worker drains its own worklist shard and steals from the
// others when it runs dry, so uncontended pushes and pops never share a
// lock. If several workers fail, all their errors are returned, joined.
func Run[T any](wl *Worklist[T], opts Options, body Body[T]) (Stats, error) {
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
			// PCG seeded by (run seed, worker index): reproducible for a
			// fixed Options.Seed, distinct per worker.
			rng := rand.New(rand.NewPCG(uint64(opts.Seed), uint64(w)))
			my := wl.forWorker(w)
			for !stop.Load() {
				item, ok, finished := my.pop()
				if !ok {
					if finished {
						return
					}
					runtime.Gosched()
					continue
				}
				if err := runItem(my, w, item, body, rng, opts, &rc); err != nil {
					stop.Store(true)
					errc <- err
					my.done()
					return
				}
				my.done()
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

// txPool recycles transaction shells between iterations; Commit and
// Abort clear the undo/release hooks (zeroing every entry, so no
// detector or closure reference survives into the pool) but keep their
// slice capacity, so a steady-state worker allocates nothing per
// transaction. GetTx/PutTx expose the pool to benchmarks and tests.
var txPool = sync.Pool{New: func() any { return new(Tx) }}

// runCounters aggregates per-run statistics across workers.
type runCounters struct {
	committed atomic.Uint64
	aborts    atomic.Uint64
	maxed     atomic.Uint64
	busyNS    atomic.Int64
}

func runItem[T any](wl *Worklist[T], w int, item T, body Body[T], rng *rand.Rand,
	opts Options, rc *runCounters) error {
	// When `go tool trace` is recording, each item is a task and each
	// speculative attempt a region, so the trace viewer shows retry
	// structure per item.
	var taskCtx context.Context
	if rtrace.IsEnabled() {
		var task *rtrace.Task
		taskCtx, task = rtrace.NewTask(context.Background(), "engine.item")
		defer task.End()
	}
	backoff := time.Microsecond
	for attempt := 0; ; attempt++ {
		var region *rtrace.Region
		if taskCtx != nil {
			region = rtrace.StartRegion(taskCtx, "attempt")
		}
		t0 := time.Now()
		tx := GetTx()
		tx.SetWorker(w)
		if telemetry.TraceEnabled() {
			tx.SetItem(itemKey(item))
			telemetry.Emit(w, telemetry.EvBegin, tx.ID(), tx.Item(), 0, 0, 0)
		}
		err := body(tx, item, wl)
		if err == nil {
			tx.Commit()
			PutTx(tx)
			rc.committed.Add(1)
			rc.busyNS.Add(int64(time.Since(t0)))
			if region != nil {
				region.End()
			}
			return nil
		}
		tx.Abort()
		PutTx(tx)
		rc.busyNS.Add(int64(time.Since(t0)))
		if region != nil {
			region.End()
		}
		if !IsConflict(err) {
			return err
		}
		rc.aborts.Add(1)
		if opts.MaxRetries > 0 && attempt >= opts.MaxRetries {
			return fmt.Errorf("engine: item retried %d times without committing: %w", attempt, err)
		}
		if backoff >= opts.maxBackoff() {
			rc.maxed.Add(1)
		}
		// Randomized exponential backoff to break symmetric livelock.
		d := time.Duration(rng.Int64N(int64(backoff) + 1))
		time.Sleep(d)
		if backoff < opts.maxBackoff() {
			backoff *= 2
		}
	}
}

// itemKey coerces a work item to an int64 trace key; items that are not
// integer-like trace as -1. Called only when event tracing is enabled
// (the interface conversion may allocate).
func itemKey(v any) int64 {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int64:
		return x
	case int32:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case uint:
		return int64(x)
	}
	return -1
}

// RunItems is a convenience wrapper seeding a fresh worklist from a slice.
func RunItems[T any](items []T, opts Options, body Body[T]) (Stats, error) {
	return Run(NewWorklist(items...), opts, body)
}
