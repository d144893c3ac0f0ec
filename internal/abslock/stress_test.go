package abslock

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// These tests pit the striped manager against a single-stripe reference
// manager (one mutex, one table — the seed's shape): striping is a pure
// performance transformation, so both must reach identical conflict
// decisions on identical schedules, and the striped table must hold no
// locks once every transaction has ended.

// TestManagerStripedMatchesSingleStripeOracle replays deterministic
// random schedules of interleaved invocations from several transactions
// against a striped manager and a single-stripe oracle, requiring the
// same allow/conflict decision at every step.
func TestManagerStripedMatchesSingleStripeOracle(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		spec := randSimpleSpec(r)
		scheme, err := Synthesize(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scheme = scheme.Reduce()
		striped := NewManager(scheme, nil)
		oracle := newManagerWithStripes(scheme, nil, 1)

		const nTx = 4
		type pair struct{ s, o *engine.Tx }
		txs := make([]pair, nTx)
		for i := range txs {
			txs[i] = pair{engine.NewTx(), engine.NewTx()}
		}
		endPair := func(i int) {
			// Abort both (identical lock-release behavior either way;
			// there are no undo hooks registered here).
			txs[i].s.Abort()
			txs[i].o.Abort()
			txs[i] = pair{engine.NewTx(), engine.NewTx()}
		}

		for step := 0; step < 400; step++ {
			i := r.Intn(nTx)
			if r.Intn(12) == 0 {
				endPair(i)
				continue
			}
			inv := randInvocation(r, spec.Sig)
			exec := func() core.Value { return inv.Ret }
			_, errS := striped.Invoke(txs[i].s, inv.Method, inv.Args, exec)
			_, errO := oracle.Invoke(txs[i].o, inv.Method, inv.Args, exec)
			if engine.IsConflict(errS) != engine.IsConflict(errO) {
				t.Fatalf("seed %d step %d: striped %v vs oracle %v for %s%v",
					seed, step, errS, errO, inv.Method, inv.Args)
			}
			if errS != nil {
				// A rejected invocation aborts its transaction in the
				// engine; mirror that so residual partial acquisitions
				// (which may legally differ between the two layouts)
				// cannot skew later decisions.
				endPair(i)
			}
		}
		for i := range txs {
			endPair(i)
		}
		if n := striped.HeldLocks(); n != 0 {
			t.Fatalf("seed %d: striped manager leaked %d locks", seed, n)
		}
		if n := oracle.HeldLocks(); n != 0 {
			t.Fatalf("seed %d: oracle manager leaked %d locks", seed, n)
		}
	}
}

// stressSpec is a minimal updater/observer spec: updates to the same
// datum never commute, updates and observations of the same datum never
// commute, observations always commute — i.e. per-key writer/reader
// exclusion, ideal for invariant checking under real concurrency.
func stressSpec() *core.Spec {
	sig := &core.ADTSig{Name: "cell", Methods: []core.MethodSig{
		{Name: "upd", Params: []string{"k"}},
		{Name: "obs", Params: []string{"k"}, HasRet: true},
	}}
	s := core.NewSpec(sig)
	ne := core.Ne(core.Arg1(0), core.Arg2(0))
	s.Set("upd", "upd", ne)
	s.Set("upd", "obs", ne)
	s.Set("obs", "obs", core.True())
	return s
}

// TestManagerStripedConcurrentStress hammers one striped manager from many
// goroutines under the race detector, checking the writer/reader
// exclusion the scheme promises with per-key atomic occupancy counters,
// and that the table drains completely afterwards.
func TestManagerStripedConcurrentStress(t *testing.T) {
	scheme, err := Synthesize(stressSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(scheme.Reduce(), nil)

	const nKeys = 16
	var occupancy [nKeys]atomic.Int32 // writers << 16 | readers
	var violations atomic.Int32

	workers := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 300; op++ {
				tx := engine.NewTx()
				k := int64(r.Intn(nKeys))
				write := r.Intn(3) == 0
				method := "obs"
				if write {
					method = "upd"
				}
				err := m.PreAcquire(tx, method, core.MakeVec(core.V(k)))
				if err == nil {
					// Claim the key and validate exclusion. The release
					// hook below is registered after the manager's own,
					// so it runs first at transaction end — while the
					// abstract lock is still held.
					if write {
						v := occupancy[k].Add(1 << 16)
						if v != 1<<16 {
							violations.Add(1)
						}
						tx.OnRelease(func() { occupancy[k].Add(-(1 << 16)) })
					} else {
						v := occupancy[k].Add(1)
						if v>>16 != 0 {
							violations.Add(1)
						}
						tx.OnRelease(func() { occupancy[k].Add(-1) })
					}
					tx.Commit()
				} else {
					if !engine.IsConflict(err) {
						t.Errorf("unexpected error: %v", err)
					}
					tx.Abort()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d exclusion violations (concurrent conflicting holders)", n)
	}
	if n := m.HeldLocks(); n != 0 {
		t.Fatalf("manager leaked %d locks", n)
	}
	var total int32
	for i := range occupancy {
		total += occupancy[i].Load()
	}
	if total != 0 {
		t.Fatalf("occupancy counters did not drain: %d", total)
	}
}
