package abslock

import (
	"sync"
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// TestFastPathDisjointAccess checks the prefilter's reason for existing:
// acquisitions on distinct datums admit without a stripe mutex (visible
// as live fast holds), conflicts against fast holds are still detected
// from the stripe path, and everything drains on release.
func TestFastPathDisjointAccess(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	if err := m.PreAcquire(tx1, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatal(err)
	}
	if err := m.PreAcquire(tx2, "add", core.MakeVec(core.V(int64(2)))); err != nil {
		t.Fatal(err)
	}
	if got := m.FastHolds(); got == 0 {
		t.Fatalf("disjoint writers should hold fast-path locks, FastHolds = %d", got)
	}
	// A third transaction colliding with tx1's fast hold must conflict
	// even though tx1 never touched a stripe.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := m.PreAcquire(tx3, "contains", core.MakeVec(core.V(int64(1)))); !engine.IsConflict(err) {
		t.Fatalf("reader under a fast-held writer should conflict, got %v", err)
	}
	tx1.Commit()
	tx2.Abort()
	if got := m.FastHolds(); got != 0 {
		t.Errorf("FastHolds = %d after release, want 0", got)
	}
	// The datum is free again — and free for the fast path.
	tx4 := engine.NewTx()
	defer tx4.Abort()
	if err := m.PreAcquire(tx4, "add", core.MakeVec(core.V(int64(1)))); err != nil {
		t.Fatalf("lock should be free after commit: %v", err)
	}
}

// TestFastPathSharedKeyFallsBack checks that compatible sharing of one
// datum never fast-admits: the second reader must see the first one's
// filter cell and take the stripe path, where read/read still shares.
func TestFastPathSharedKeyFallsBack(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx1.Abort()
	defer tx2.Abort()
	if err := m.PreAcquire(tx1, "contains", core.MakeVec(core.V(int64(5)))); err != nil {
		t.Fatal(err)
	}
	fastBefore := m.FastHolds()
	if err := m.PreAcquire(tx2, "contains", core.MakeVec(core.V(int64(5)))); err != nil {
		t.Fatalf("readers should share: %v", err)
	}
	if got := m.FastHolds(); got != fastBefore {
		t.Errorf("second reader of the same key must not fast-admit: FastHolds %d -> %d", fastBefore, got)
	}
	// Both directions of the fast/stripe split are now live on one key;
	// a writer must conflict with the stripe-held read.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := m.PreAcquire(tx3, "remove", core.MakeVec(core.V(int64(5)))); !engine.IsConflict(err) {
		t.Fatalf("writer under readers should conflict, got %v", err)
	}
}

// TestFastPathStripeFirst covers the reverse interleaving: a stripe-held
// lock (forced by an earlier fallback) must make later acquirers of the
// same datum fall off the fast path and conflict in the stripe.
func TestFastPathStripeFirst(t *testing.T) {
	m := newRWSetManager(t)
	tx1, tx2 := engine.NewTx(), engine.NewTx()
	defer tx2.Abort()
	// Two reads drive tx2's hold onto the stripe path.
	if err := m.PreAcquire(tx1, "contains", core.MakeVec(core.V(int64(9)))); err != nil {
		t.Fatal(err)
	}
	if err := m.PreAcquire(tx2, "contains", core.MakeVec(core.V(int64(9)))); err != nil {
		t.Fatal(err)
	}
	tx1.Abort()
	// tx2's stripe hold alone now guards the datum; its filter count must
	// keep writers off the fast path and into the conflict.
	tx3 := engine.NewTx()
	defer tx3.Abort()
	if err := m.PreAcquire(tx3, "add", core.MakeVec(core.V(int64(9)))); !engine.IsConflict(err) {
		t.Fatalf("writer under a stripe-held read should conflict, got %v", err)
	}
}

// TestFastPathSlotExhaustion shrinks the fast table to two slots and
// checks that acquisitions past its capacity overflow to the stripes
// without changing any verdict, and that mixed fast/stripe holds drain.
func TestFastPathSlotExhaustion(t *testing.T) {
	s, err := Synthesize(rwSetSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(s.Reduce(), nil)
	m.fast = newFastTable(2, 0)

	const n = 8
	txs := make([]*engine.Tx, n)
	for i := range txs {
		txs[i] = engine.NewTx()
		if err := m.PreAcquire(txs[i], "add", core.MakeVec(core.V(int64(i)))); err != nil {
			t.Fatalf("disjoint add %d: %v", i, err)
		}
	}
	if got := m.FastHolds(); got > 2 {
		t.Fatalf("FastHolds = %d with a 2-slot table", got)
	}
	// Every datum is guarded regardless of which path holds it.
	for i := 0; i < n; i++ {
		probe := engine.NewTx()
		if err := m.PreAcquire(probe, "contains", core.MakeVec(core.V(int64(i)))); !engine.IsConflict(err) {
			t.Fatalf("key %d unguarded after slot exhaustion: %v", i, err)
		}
		probe.Abort()
	}
	for _, tx := range txs {
		tx.Commit()
	}
	if got := m.FastHolds(); got != 0 {
		t.Errorf("FastHolds = %d after drain, want 0", got)
	}
	if got := m.HeldLocks(); got != 0 {
		t.Errorf("HeldLocks = %d after drain, want 0", got)
	}
}

// TestFastPathConcurrentDisjoint hammers disjoint keyspaces from many
// goroutines — the workload the prefilter targets — and checks full
// drainage. Run with -race for the memory-model check of the
// publish/probe and release protocols.
func TestFastPathConcurrentDisjoint(t *testing.T) {
	m := newRWSetManager(t)
	const workers = 8
	ops := 500
	if testing.Short() {
		ops = 100
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				tx := engine.NewTx()
				// Key ranges overlap pairwise so fast holds, stripe
				// fallbacks, and genuine conflicts all occur.
				k := int64(w*4 + i%8)
				err := m.PreAcquire(tx, "add", core.MakeVec(core.V(k)))
				if err != nil && !engine.IsConflict(err) {
					t.Errorf("unexpected error: %v", err)
				}
				if i%3 == 0 {
					tx.Abort()
				} else {
					tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.FastHolds(); got != 0 {
		t.Errorf("FastHolds = %d after stress, want 0", got)
	}
	if got := m.HeldLocks(); got != 0 {
		t.Errorf("HeldLocks = %d after stress, want 0", got)
	}
}
