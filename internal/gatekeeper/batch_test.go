package gatekeeper

import (
	"testing"

	"commlat/internal/core"
	"commlat/internal/engine"
)

// batchTestCascade builds a two-method cascade ("a" add-like, "b"
// remove-like, both keyed on one argument) with explicit pair
// conditions.
func batchTestCascade(t *testing.T, aa, ab, bb core.Cond, cfg CascadeConfig) *Cascade {
	t.Helper()
	sig := &core.ADTSig{Name: "batchadt", Methods: []core.MethodSig{
		{Name: "a", Params: []string{"x"}, HasRet: true},
		{Name: "b", Params: []string{"x"}, HasRet: true},
	}}
	spec := core.NewSpec(sig)
	spec.Set("a", "a", aa)
	spec.Set("a", "b", ab)
	spec.Set("b", "b", bb)
	c, err := NewCascadeConfig(spec, nil, cfg)
	if err != nil {
		t.Fatalf("NewCascadeConfig: %v", err)
	}
	return c
}

// execInto fills a batch run's effects against rep: "a" adds, "b"
// removes, both returning whether the representation changed.
func execInto(rep map[int64]bool) func(run []BatchOp) {
	return func(run []BatchOp) {
		for k := range run {
			x := run[k].Args.At(0).Int()
			if run[k].Method == "a" {
				if rep[x] {
					run[k].Ret = core.VBool(false)
					continue
				}
				rep[x] = true
				run[k].Ret = core.VBool(true)
				run[k].Undo = func() { delete(rep, x) }
			} else {
				if !rep[x] {
					run[k].Ret = core.VBool(false)
					continue
				}
				delete(rep, x)
				run[k].Ret = core.VBool(true)
				run[k].Undo = func() { rep[x] = true }
			}
		}
	}
}

func effectFor(rep map[int64]bool, method string, x int64) func() Effect {
	return func() Effect {
		if method == "a" {
			if rep[x] {
				return Effect{Ret: core.VBool(false)}
			}
			rep[x] = true
			return Effect{Ret: core.VBool(true), Undo: func() { delete(rep, x) }}
		}
		if !rep[x] {
			return Effect{Ret: core.VBool(false)}
		}
		delete(rep, x)
		return Effect{Ret: core.VBool(true), Undo: func() { rep[x] = true }}
	}
}

var neCond = core.Ne(core.Arg1(0), core.Arg2(0))

// TestBatchAdmitsDisjointWhole: a batch of pairwise-disjoint keys under
// a pure disequality spec admits whole on the fast path and
// group-commits through one BatchReleaser call.
func TestBatchAdmitsDisjointWhole(t *testing.T) {
	c := batchTestCascade(t, neCond, neCond, neCond, CascadeConfig{})
	rep := map[int64]bool{}
	const n = 16
	ops := make([]BatchOp, n)
	txs := make([]*engine.Tx, n)
	for i := range ops {
		txs[i] = engine.NewTx()
		ops[i] = BatchOp{Tx: txs[i], Method: "a", Args: core.Args1(core.VInt(int64(i)))}
	}
	p := c.InvokeBatch(ops, execInto(rep))
	if p != n {
		t.Fatalf("admitted prefix = %d, want %d", p, n)
	}
	for i := range ops {
		if !ops[i].Ret.Bool() {
			t.Fatalf("op %d: ret = false, want true", i)
		}
	}
	engine.CommitBatch(txs)
	if got := c.ActiveInvocations(); got != 0 {
		t.Fatalf("window leaked %d invocations after group commit", got)
	}
	if len(rep) != n {
		t.Fatalf("rep has %d elements, want %d", len(rep), n)
	}
	if s := c.Stats(); s.BatchesWhole != 1 || s.BatchesSplit != 0 || s.BatchesSerialized != 0 {
		t.Fatalf("batch counters = whole %d split %d serialized %d, want 1/0/0",
			s.BatchesWhole, s.BatchesSplit, s.BatchesSerialized)
	}
}

// TestBatchIntraConflictSplits: two different transactions adding the
// same key do not commute under a disequality spec, so the batch must
// split exactly at the second one — never admitting both.
func TestBatchIntraConflictSplits(t *testing.T) {
	c := batchTestCascade(t, neCond, neCond, neCond, CascadeConfig{})
	rep := map[int64]bool{}
	keys := []int64{1, 1, 2}
	ops := make([]BatchOp, len(keys))
	txs := make([]*engine.Tx, len(keys))
	for i, x := range keys {
		txs[i] = engine.NewTx()
		ops[i] = BatchOp{Tx: txs[i], Method: "a", Args: core.Args1(core.VInt(x))}
	}
	p := c.InvokeBatch(ops, execInto(rep))
	if p != 1 {
		t.Fatalf("admitted prefix = %d, want 1 (split at duplicate key)", p)
	}
	// The suffix's effects were undone; only the prefix's survive.
	if !rep[1] || rep[2] {
		t.Fatalf("rep after split = %v, want only key 1", rep)
	}
	engine.CommitBatch(txs[:p])
	// The caller's serial re-run after the group commit reproduces the
	// serial verdicts: the duplicate add now sees an empty window.
	for i := p; i < len(keys); i++ {
		if _, err := c.Invoke(txs[i], "a", ops[i].Args, effectFor(rep, "a", keys[i])); err != nil {
			t.Fatalf("serial re-run op %d: %v", i, err)
		}
		txs[i].Commit()
	}
	if rep[2] != true || rep[1] != true {
		t.Fatalf("rep after re-run = %v", rep)
	}
	if got := c.ActiveInvocations(); got != 0 {
		t.Fatalf("window leaked %d invocations", got)
	}
}

// TestBatchSameTxPeersAdmit: the same transaction invoking the same key
// twice is never a conflict with itself, in a batch or out of it.
func TestBatchSameTxPeersAdmit(t *testing.T) {
	c := batchTestCascade(t, neCond, neCond, neCond, CascadeConfig{})
	rep := map[int64]bool{}
	tx := engine.NewTx()
	ops := []BatchOp{
		{Tx: tx, Method: "a", Args: core.Args1(core.VInt(7))},
		{Tx: tx, Method: "a", Args: core.Args1(core.VInt(7))},
	}
	p := c.InvokeBatch(ops, execInto(rep))
	if p != 2 {
		t.Fatalf("admitted prefix = %d, want 2 (same-tx pair)", p)
	}
	if !ops[0].Ret.Bool() || ops[1].Ret.Bool() {
		t.Fatalf("rets = %v, %v, want true, false", ops[0].Ret.Bool(), ops[1].Ret.Bool())
	}
	tx.Commit()
	if got := c.ActiveInvocations(); got != 0 {
		t.Fatalf("window leaked %d invocations", got)
	}
}

// TestBatchExternalConflictBounds: a live external transaction holding
// a key bounds the batch at the member touching it, and that member's
// serial re-run reproduces the conflict verdict.
func TestBatchExternalConflictBounds(t *testing.T) {
	c := batchTestCascade(t, neCond, neCond, neCond, CascadeConfig{})
	rep := map[int64]bool{}
	holder := engine.NewTx()
	if _, err := c.Invoke(holder, "a", core.Args1(core.VInt(5)), effectFor(rep, "a", 5)); err != nil {
		t.Fatalf("holder publish: %v", err)
	}
	keys := []int64{1, 5, 2}
	ops := make([]BatchOp, len(keys))
	txs := make([]*engine.Tx, len(keys))
	for i, x := range keys {
		txs[i] = engine.NewTx()
		ops[i] = BatchOp{Tx: txs[i], Method: "a", Args: core.Args1(core.VInt(x))}
	}
	p := c.InvokeBatch(ops, execInto(rep))
	if p != 1 {
		t.Fatalf("admitted prefix = %d, want 1 (bounded by external holder)", p)
	}
	engine.CommitBatch(txs[:p])
	// Serial re-run: the holder's key still conflicts, the rest admit.
	if _, err := c.Invoke(txs[1], "a", ops[1].Args, effectFor(rep, "a", 5)); !engine.IsConflict(err) {
		t.Fatalf("serial re-run of held key: err = %v, want conflict", err)
	}
	txs[1].Abort()
	if _, err := c.Invoke(txs[2], "a", ops[2].Args, effectFor(rep, "a", 2)); err != nil {
		t.Fatalf("serial re-run op 2: %v", err)
	}
	txs[2].Commit()
	holder.Commit()
	if got := c.ActiveInvocations(); got != 0 {
		t.Fatalf("window leaked %d invocations", got)
	}
}

// FuzzBatchAgreesWithSerial feeds a randomized stream of batches and
// long-lived holder transactions through the batched admission path and
// through plain one-at-a-time invocation on a second cascade built from
// the same randomized specification, requiring the serial schedule's
// verdict — admitted or conflicted, and the return value — for every
// single operation, and identical final representations.
func FuzzBatchAgreesWithSerial(f *testing.F) {
	f.Add([]byte{2, 4, 3, 0, 2, 6, 10, 20, 30, 2, 4, 11, 21})
	f.Add([]byte{1, 1, 1, 1, 0, 5, 1, 1, 2, 2, 3})
	f.Add([]byte{5, 5, 5, 0, 8, 4, 9, 8, 7, 6, 0, 3})
	f.Add([]byte{3, 2, 4, 1, 1, 3, 7, 0, 7, 2, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		sig := &core.ADTSig{Name: "fuzzadt", Methods: []core.MethodSig{
			{Name: "a", Params: []string{"x"}, HasRet: true},
			{Name: "b", Params: []string{"x"}, HasRet: true},
		}}
		spec := core.NewSpec(sig)
		spec.Set("a", "a", fuzzCond(data[0]))
		spec.Set("a", "b", fuzzCond(data[1]))
		spec.Set("b", "b", fuzzCond(data[2]))
		cfg := CascadeConfig{}
		if data[3]%4 == 0 {
			cfg.SlotCapacity = 2 // force the overflow path regularly
		}
		bc, err := NewCascadeConfig(spec, nil, cfg)
		if err != nil {
			t.Fatalf("NewCascadeConfig: %v", err)
		}
		sc, err := NewCascadeConfig(spec, nil, cfg)
		if err != nil {
			t.Fatalf("NewCascadeConfig: %v", err)
		}

		bRep, sRep := map[int64]bool{}, map[int64]bool{}

		// Holder transactions stay live across batches on both sides,
		// so batches race real window entries.
		const nHold = 2
		var bHold, sHold [nHold]*engine.Tx
		for i := range bHold {
			bHold[i], sHold[i] = engine.NewTx(), engine.NewTx()
		}
		defer func() {
			for i := range bHold {
				bHold[i].Abort()
				sHold[i].Abort()
			}
			if n := bc.ActiveInvocations(); n != 0 {
				t.Errorf("batched cascade leaked %d invocations", n)
			}
			if n := sc.ActiveInvocations(); n != 0 {
				t.Errorf("serial cascade leaked %d invocations", n)
			}
		}()

		stream := data[4:]
		next := func() (byte, bool) {
			if len(stream) == 0 {
				return 0, false
			}
			b := stream[0]
			stream = stream[1:]
			return b, true
		}
		decodeOp := func(b byte) (string, int64) {
			method := "a"
			if b&1 == 1 {
				method = "b"
			}
			return method, int64((b >> 1) % 8)
		}

		for {
			sel, ok := next()
			if !ok {
				break
			}
			switch sel % 4 {
			case 0: // one invocation under a holder transaction
				hb, ok := next()
				if !ok {
					return
				}
				hi := int(sel/4) % nHold
				method, x := decodeOp(hb)
				args := core.Args1(core.VInt(x))
				br, berr := bc.Invoke(bHold[hi], method, args, effectFor(bRep, method, x))
				sr, serr := sc.Invoke(sHold[hi], method, args, effectFor(sRep, method, x))
				if (berr == nil) != (serr == nil) {
					t.Fatalf("holder %s(%d): batch err=%v serial err=%v", method, x, berr, serr)
				}
				if berr == nil && br != sr {
					t.Fatalf("holder %s(%d): batch ret=%v serial ret=%v", method, x, br, sr)
				}
			case 1: // churn one holder: commit or abort on both sides
				hi := int(sel/4) % nHold
				if sel&64 != 0 {
					bHold[hi].Commit()
					sHold[hi].Commit()
				} else {
					bHold[hi].Abort()
					sHold[hi].Abort()
				}
				bHold[hi], sHold[hi] = engine.NewTx(), engine.NewTx()
			default: // a batch of 1..8 ops, each in its own transaction
				nb, ok := next()
				if !ok {
					return
				}
				n := 1 + int(nb)%8
				ops := make([]BatchOp, 0, n)
				txs := make([]*engine.Tx, 0, n)
				for len(ops) < n {
					ob, ok := next()
					if !ok {
						break
					}
					method, x := decodeOp(ob)
					tx := engine.NewTx()
					txs = append(txs, tx)
					ops = append(ops, BatchOp{Tx: tx, Method: method, Args: core.Args1(core.VInt(x))})
				}
				if len(ops) == 0 {
					continue
				}
				type verdict struct {
					ok  bool
					ret core.Value
				}
				bv := make([]verdict, len(ops))
				p := bc.InvokeBatch(ops, execInto(bRep))
				for i := 0; i < p; i++ {
					bv[i] = verdict{ok: true, ret: ops[i].Ret}
				}
				engine.CommitBatch(txs[:p])
				for i := p; i < len(ops); i++ {
					method, x := decodeOp(0)
					method = ops[i].Method
					x = ops[i].Args.At(0).Int()
					r, err := bc.Invoke(txs[i], method, ops[i].Args, effectFor(bRep, method, x))
					if err == nil {
						bv[i] = verdict{ok: true, ret: r}
						txs[i].Commit()
					} else {
						if !engine.IsConflict(err) {
							t.Fatalf("batch re-run %s(%d): non-conflict error %v", method, x, err)
						}
						txs[i].Abort()
					}
				}
				// Serial reference: same ops one at a time, each its own
				// transaction, committing between operations.
				for i := range ops {
					method := ops[i].Method
					x := ops[i].Args.At(0).Int()
					tx := engine.NewTx()
					r, err := sc.Invoke(tx, method, ops[i].Args, effectFor(sRep, method, x))
					sv := verdict{}
					if err == nil {
						sv = verdict{ok: true, ret: r}
						tx.Commit()
					} else {
						if !engine.IsConflict(err) {
							t.Fatalf("serial %s(%d): non-conflict error %v", method, x, err)
						}
						tx.Abort()
					}
					if bv[i].ok != sv.ok {
						t.Fatalf("op %d %s(%d): batch admitted=%v serial admitted=%v (prefix %d of %d)",
							i, method, x, bv[i].ok, sv.ok, p, len(ops))
					}
					if bv[i].ok && bv[i].ret != sv.ret {
						t.Fatalf("op %d %s(%d): batch ret=%v serial ret=%v", i, method, x, bv[i].ret, sv.ret)
					}
				}
			}
		}
		for k := range bRep {
			if !sRep[k] {
				t.Fatalf("representations diverged: %d in batched only", k)
			}
		}
		for k := range sRep {
			if !bRep[k] {
				t.Fatalf("representations diverged: %d in serial only", k)
			}
		}
	})
}
