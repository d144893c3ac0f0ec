// Package gatekeeper implements the paper's two logging-based conflict
// detection schemes (§3.3): forward gatekeepers for ONLINE-CHECKABLE
// specifications and general gatekeepers, which add state rollback to
// evaluate arbitrary L1 conditions.
//
// A gatekeeper is a special object interposed between transactions and a
// linearizable data structure. The whole sequence — intercept an
// invocation, check it for commutativity against every active invocation
// from other transactions, execute it, and return — appears atomic (a
// per-structure mutex). Because the gatekeeper interacts with the
// structure only through method invocations and declared state functions,
// it is agnostic to the concrete representation.
package gatekeeper

import (
	"fmt"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// Effect is what executing a method invocation produced: its return value
// and an inverse action that undoes its state change (nil for read-only
// invocations, which also covers mutating methods that happened not to
// change anything, e.g. add of a present element).
type Effect struct {
	Ret  core.Value
	Undo func()
}

// entry is an active logged invocation: the invocation itself plus the
// result log L_m(v) holding the values of the primitive functions Cm
// evaluated when it ran (§3.3.1 step 1), stored by slot index (the slot
// assignment is per method, fixed at NewForward time).
type entry struct {
	tx  *engine.Tx
	inv core.Invocation
	log []core.Value

	// keys holds the entry's canonical index key per key slot of its
	// method (aligned with Forward.slots[method]); the unset sentinel
	// marks a slot where the entry is filed as unkeyed. gen is the
	// probe-generation stamp used to deduplicate an entry reachable
	// through several guards of one probe. pos is the entry's position
	// in its method's active list, maintained under swap-deletes so a
	// transaction's release touches only its own entries.
	keys []core.Value
	gen  uint64
	pos  int

	// g and undo let the entry itself serve as the transaction's undo
	// hook (engine.Undoer): registering the pooled entry pointer
	// allocates nothing, where wrapping eff.Undo in a fresh closure
	// allocated per mutating invocation.
	g    *Forward
	undo func()
}

// UndoTx rolls back the entry's effect under the gatekeeper mutex.
// Undo hooks run before release hooks during an abort, so the entry is
// still live (not yet recycled) when this fires.
func (e *entry) UndoTx(*engine.Tx) {
	e.g.mu.Lock()
	if e.undo != nil {
		e.undo()
	}
	e.g.mu.Unlock()
}

var entryPool = sync.Pool{New: func() any { return new(entry) }}

// loggedFn is one primitive function of Cm with its assigned log slot.
type loggedFn struct {
	ft   core.FnTerm
	slot int
}

// fwdPlan is the static per-ordered-pair plan: the condition to check
// when the second method arrives while the first is active (compiled
// into a closure checker at NewForward time), plus the non-pure
// s2-state functions that must be evaluated before the second method
// executes, each bound to a pre2 slot by position.
type fwdPlan struct {
	cond    core.Cond
	fn2Pre  []core.FnTerm
	check   checkFn
	trivial bool // condition is the constant true: nothing to check
	never   bool // condition is the constant false

	// Disequality index compilation (see index.go). When indexed, keys
	// holds one compiled guard per CNF clause of the condition;
	// incoming invocations probe the first method's key slots instead
	// of scanning its active list. pureDiseq marks conditions that are
	// exactly the conjunction of the guards, so a (non-NaN) collision
	// is a conflict without running the checker. probePost marks plans
	// whose probe needs r2 and must run after execution.
	keys      []indexKey[*entry]
	indexed   bool
	pureDiseq bool
	probePost bool

	// m1id/m2id are the pair's method IDs in the telemetry detector's
	// label vocabulary, compiled here so attribution on the hot path is
	// an array-indexed atomic add, never a map lookup.
	m1id, m2id uint16
}

// pairCheck names an active-side method whose pairs with the incoming
// method need checking, with the plan to run.
type pairCheck struct {
	m1   string
	plan *fwdPlan
}

// pending is one queued commutativity check of an Invoke: the active
// entry, the plan, and the plan's pre-evaluated fn2Pre values as a
// window into the shared pre2 arena.
type pending struct {
	e    *entry
	plan *fwdPlan
	off  int
	n    int
	// immediate marks a collision on a purely-disequality condition:
	// the condition is known false, so the check loop conflicts without
	// evaluating the checker.
	immediate bool
}

// Forward is a forward gatekeeper (§3.3.1): it builds up information
// about method invocations as they happen, storing primitive-function
// results in per-invocation logs, and verifies that every new invocation
// commutes with all active invocations from other transactions. Active
// entries are indexed by method, so an incoming invocation only scans
// methods whose pair condition with it is non-trivial; pairs whose
// condition is the constant true cost nothing.
type Forward struct {
	spec *core.Spec
	res  core.StateFn // live resolver against the guarded structure

	pairs   map[[2]string]*fwdPlan
	cmPre   map[string][]loggedFn // Cm: non-pure s1 functions, evaluated pre-execution
	cmPost  map[string][]loggedFn // Cm: pure s1 functions, evaluated post-execution
	logLen  map[string]int        // log slots per method
	byFirst map[string][]pairCheck
	slots   map[string][]*keySlot[*entry] // disequality key slots per method

	tele *telemetry.Detector // attribution counters (method vocabulary)

	mu       sync.Mutex
	active   map[string][]*entry // active invocations, indexed by method
	nActive  int
	byTx     map[*engine.Tx][]*entry // each tx's own active entries, for O(own) release
	txLists  [][]*entry              // recycled byTx slices
	probeGen uint64

	// per-Invoke scratch, reused under mu to keep the hot path
	// allocation-free
	checks    []pending
	pre2buf   []core.Value
	deferred  []pairCheck
	probeKeys []core.Value
	// ctx is the compiled-checker evaluation context. A local checkCtx
	// escapes (its address flows into checker function values), so the
	// hot paths reuse this one field instead; it retains at most the
	// latest invocation between calls.
	ctx checkCtx
}

// Config tunes optional gatekeeper machinery.
type Config struct {
	// DisableIndex turns off the disequality-keyed active-set index,
	// restoring the seed behaviour of scanning every active entry of
	// each non-trivially-paired method. Benchmarks use it to quantify
	// the index.
	DisableIndex bool
}

// Stats counts the work a gatekeeper performed — the raw material of the
// overhead comparison in §3.4.
type Stats struct {
	Invocations uint64 // guarded invocations processed
	Checks      uint64 // pairwise commutativity conditions evaluated
	Conflicts   uint64 // invocations rejected
	Rollbacks   uint64 // journal rollback sweeps (general gatekeepers)
	LogEntries  uint64 // primitive-function results logged (forward)

	// Disequality-index effectiveness. Probes counts indexed pair
	// lookups; Collisions counts the active entries those probes
	// surfaced for full checking (hash collisions plus unkeyable
	// entries); FallbackScans counts full active-list scans of a
	// non-empty method list (unindexable pair, unkeyable probe value,
	// or index disabled). At large active windows a healthy index shows
	// Probes ≫ Collisions and few FallbackScans.
	Probes        uint64
	Collisions    uint64
	FallbackScans uint64

	// Cascade pipeline effectiveness (cascade detectors only): how far
	// down the filter pipeline invocations fell. FastAdmits counts
	// stage-1 lock-free admissions, FilterHits signature hits that
	// reached the optimistic path, OptScans/OptRetries the lock-free
	// chain scans and their version-stamp races, CascadeFallbacks
	// trips through the mutex-guarded overflow path.
	FastAdmits       uint64
	FilterHits       uint64
	OptScans         uint64
	OptRetries       uint64
	CascadeFallbacks uint64

	// Batch admission effectiveness (batched detectors only): how whole
	// admission batches fared. BatchesWhole counts batches whose every
	// member was admitted as one group, BatchesSplit batches that
	// group-admitted a prefix and serialized the rest, BatchesSerialized
	// batches that admitted nothing as a group.
	BatchesWhole      uint64
	BatchesSplit      uint64
	BatchesSerialized uint64
}

// NewForward constructs a forward gatekeeper for spec guarding a
// structure whose state functions are resolved by res. It fails if any
// pair condition is not ONLINE-CHECKABLE (Definition 7), or uses a shape
// this engine cannot schedule (a non-pure state function needing a return
// value before it is known).
func NewForward(spec *core.Spec, res core.StateFn) (*Forward, error) {
	return NewForwardConfig(spec, res, Config{})
}

// NewForwardConfig is NewForward with explicit configuration.
func NewForwardConfig(spec *core.Spec, res core.StateFn, cfg Config) (*Forward, error) {
	g := &Forward{
		spec:    spec,
		res:     res,
		pairs:   map[[2]string]*fwdPlan{},
		cmPre:   map[string][]loggedFn{},
		cmPost:  map[string][]loggedFn{},
		logLen:  map[string]int{},
		byFirst: map[string][]pairCheck{},
		slots:   map[string][]*keySlot[*entry]{},
		active:  map[string][]*entry{},
		byTx:    map[*engine.Tx][]*entry{},
	}
	logSlots := map[string]map[string]int{} // m1 -> term key -> log slot
	names := spec.Sig.MethodNames()
	g.tele = telemetry.Register("forward", spec.Sig.Name, names)
	for i1, m1 := range names {
		for i2, m2 := range names {
			cond := spec.Cond(m1, m2)
			if !core.IsOnlineCheckableWith(cond, spec.Pure) {
				return nil, fmt.Errorf("gatekeeper: condition for (%s,%s) is not ONLINE-CHECKABLE: %s (use a general gatekeeper)", m1, m2, cond)
			}
			plan := &fwdPlan{cond: cond, m1id: uint16(i1), m2id: uint16(i2)}
			switch cond.(type) {
			case core.TrueCond:
				plan.trivial = true
			case core.FalseCond:
				plan.never = true
			}
			// Collect the primitive function set Cm1 (all s1 functions in
			// the condition) and schedule each: pure functions evaluate
			// after execution (the return value is then available);
			// non-pure functions must run in the pre-state and therefore
			// may not mention r1. Every logged function gets a stable slot
			// in m1's log.
			for _, ft := range core.FirstStateFns(cond) {
				if logSlots[m1] == nil {
					logSlots[m1] = map[string]int{}
				}
				key := core.TermKey(ft)
				if _, seen := logSlots[m1][key]; seen {
					continue
				}
				if spec.Pure[ft.Fn] {
					// Pure functions over first-invocation values are
					// logged after execution (the paper's dist(x, r) log
					// entry); pure functions that also mention the second
					// invocation cannot be logged and are evaluated live
					// at check time instead, which is sound because they
					// are state-independent.
					if !mentionsSide(ft, core.Second) {
						slot := len(logSlots[m1])
						logSlots[m1][key] = slot
						g.cmPost[m1] = append(g.cmPost[m1], loggedFn{ft, slot})
					}
				} else {
					if mentionsRet(ft, core.First) {
						return nil, fmt.Errorf("gatekeeper: %s needs non-pure %s(s1,...) over r1, which cannot be evaluated in the pre-state", m1, ft.Fn)
					}
					slot := len(logSlots[m1])
					logSlots[m1][key] = slot
					g.cmPre[m1] = append(g.cmPre[m1], loggedFn{ft, slot})
				}
			}
			// Non-pure s2 functions must be evaluated in the state the
			// second method executes in, i.e. before it runs, so they may
			// not mention r2.
			for _, ft := range secondStateFns(cond) {
				if spec.Pure[ft.Fn] {
					continue // resolved live; pure functions ignore state
				}
				if mentionsRet(ft, core.Second) {
					return nil, fmt.Errorf("gatekeeper: (%s,%s) needs non-pure %s(s2,...) over r2, which cannot be evaluated before execution", m1, m2, ft.Fn)
				}
				if containsNonPureFn(ft, core.First, spec.Pure) {
					return nil, fmt.Errorf("gatekeeper: (%s,%s): non-pure s1 function nested inside %s(s2,...) is not supported", m1, m2, ft.Fn)
				}
				plan.fn2Pre = append(plan.fn2Pre, ft)
			}
			g.pairs[[2]string{m1, m2}] = plan
		}
	}
	for m := range logSlots {
		g.logLen[m] = len(logSlots[m])
	}
	// Compile every plan's condition, binding logged s1 functions to the
	// first method's log slots and pre-evaluated s2 functions to the
	// plan's fn2Pre slots, and index the non-trivial pairs by incoming
	// (second) method so Invoke skips always-commuting methods entirely.
	for _, m1 := range names {
		for _, m2 := range names {
			plan := g.pairs[[2]string{m1, m2}]
			bind := map[string]slotBinding{}
			for k, slot := range logSlots[m1] {
				bind[k] = slotBinding{src: srcLog1, slot: slot}
			}
			for i, ft := range plan.fn2Pre {
				bind[core.TermKey(ft)] = slotBinding{src: srcPre2, slot: i}
			}
			plan.check = compileCond(cond2(plan), bind, res)
			if !cfg.DisableIndex && !plan.trivial && !plan.never {
				keys, pureDiseq, probePost, ok := compileIndex[*entry](
					plan.cond, spec.Pure, bind, res, true, g.slotFor(m1))
				// A probe that needs r2 can only run after execution,
				// but fn2Pre values must be captured per colliding
				// entry before it — irreconcilable, so such pairs keep
				// the scan.
				if ok && !(probePost && len(plan.fn2Pre) > 0) {
					plan.keys = keys
					plan.indexed = true
					plan.pureDiseq = pureDiseq
					plan.probePost = probePost
				}
			}
			if !plan.trivial {
				g.byFirst[m2] = append(g.byFirst[m2], pairCheck{m1: m1, plan: plan})
			}
		}
	}
	return g, nil
}

// slotFor interns a guard x term into method m1's key-slot list,
// deduplicating across pairs so that every pair guarding on the same
// first-side value shares one bucket map.
func (g *Forward) slotFor(m1 string) func(x core.Term, extract termFn) *keySlot[*entry] {
	return func(x core.Term, extract termFn) *keySlot[*entry] {
		xk := core.TermKey(x)
		for _, s := range g.slots[m1] {
			if core.TermKey(s.term) == xk {
				return s
			}
		}
		s := &keySlot[*entry]{term: x, extract: extract, index: map[core.Value]*bucket[*entry]{}}
		g.slots[m1] = append(g.slots[m1], s)
		return s
	}
}

func cond2(p *fwdPlan) core.Cond { return p.cond }

// Invoke executes one guarded method invocation for tx. exec performs the
// operation on the underlying structure and reports its effect. If the
// invocation does not commute with some active invocation, Invoke undoes
// the effect inside its atomic section and returns an error satisfying
// engine.IsConflict. On success the effect's undo action (if any) is
// registered with tx so that a later abort rolls it back, and the
// invocation joins the active log until tx ends.
//
// Arguments travel in a flat core.Vec passed by value — build it with
// core.Args1/Args2/... at the call site; no argument slice is ever
// allocated.
func (g *Forward) Invoke(tx *engine.Tx, method string, args core.Vec, exec func() Effect) (core.Value, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tele.IncInvocation()
	t0 := telemetry.LatClock()
	ret, err := g.invokeLocked(tx, method, args, exec)
	if obsInstrumented(t0) {
		g.obsInvoke(tx, method, t0, err)
	}
	return ret, err
}

// invokeLocked is Invoke's body; the caller holds g.mu and has counted
// the invocation.
func (g *Forward) invokeLocked(tx *engine.Tx, method string, args core.Vec, exec func() Effect) (core.Value, error) {
	e := entryPool.Get().(*entry)
	e.tx = tx
	e.g = g
	e.inv = core.Invocation{Method: method, Args: args}
	if n := g.logLen[method]; cap(e.log) >= n {
		e.log = e.log[:n]
	} else {
		e.log = make([]core.Value, n)
	}

	// Pre-pass A: our own non-pure s1 functions, in the pre-state.
	preEnv := core.PairEnv{Inv1: e.inv, S1: g.res, S2: g.res}
	for _, lf := range g.cmPre[method] {
		v, err := core.EvalTerm(lf.ft, &preEnv)
		if err != nil {
			g.putEntry(e)
			return core.Value{}, fmt.Errorf("gatekeeper: evaluating %s for %s: %w", lf.ft, method, err)
		}
		e.log[lf.slot] = v
		g.tele.IncLogEntry()
	}

	// Pre-pass B: gather the commutativity checks this invocation owes.
	// Indexed pairs probe the first method's key slots and queue only
	// colliding entries; the rest scan its active list as the seed did.
	// Pairs whose probe needs r2 are deferred until after execution.
	// Queuing also captures each pair's non-pure s2 functions, in the
	// state m2 executes in.
	g.checks = g.checks[:0]
	g.pre2buf = g.pre2buf[:0]
	g.deferred = g.deferred[:0]
	env := core.PairEnv{Inv2: e.inv, S1: g.res, S2: g.res}
	for _, pc := range g.byFirst[method] {
		var err error
		switch {
		case pc.plan.indexed && pc.plan.probePost:
			g.deferred = append(g.deferred, pc)
		case pc.plan.indexed:
			err = g.probePair(tx, e, pc, &env)
		default:
			err = g.scanPair(tx, e, pc, &env)
		}
		if err != nil {
			g.putEntry(e)
			return core.Value{}, err
		}
	}

	// Execute.
	eff := exec()
	e.inv.Ret = eff.Ret
	undoNow := func() {
		if eff.Undo != nil {
			eff.Undo()
		}
	}

	// Post-pass: our pure s1 functions (may use the return value).
	postEnv := core.PairEnv{Inv1: e.inv, S1: g.res, S2: g.res}
	for _, lf := range g.cmPost[method] {
		v, err := core.EvalTerm(lf.ft, &postEnv)
		if err != nil {
			undoNow()
			g.putEntry(e)
			return core.Value{}, fmt.Errorf("gatekeeper: evaluating %s for %s: %w", lf.ft, method, err)
		}
		e.log[lf.slot] = v
		g.tele.IncLogEntry()
	}

	// Deferred probes: their key needs r2, which exists only now. Such
	// plans carry no fn2Pre (enforced at compile time), so queuing after
	// execution is sound.
	for _, pc := range g.deferred {
		if err := g.probePair(tx, e, pc, &env); err != nil {
			undoNow()
			g.putEntry(e)
			return eff.Ret, err
		}
	}

	// Check commutativity against every queued active invocation with
	// the pair's compiled checker.
	g.ctx = checkCtx{env: core.PairEnv{Inv2: e.inv, S1: g.res, S2: g.res}}
	ctx := &g.ctx
	for i := range g.checks {
		p := &g.checks[i]
		if p.immediate {
			// Collision on a purely-disequality condition: some guard
			// x = y holds, so the condition is false by construction.
			undoNow()
			g.conflict(tx, p.plan)
			inv1 := p.e.inv
			tx1 := p.e.tx.ID()
			g.putEntry(e)
			return eff.Ret, engine.Conflict("gatekeeper: %s%v does not commute with active %s%v (tx %d)",
				method, args, inv1.Method, inv1.Args, tx1)
		}
		g.tele.Check(p.plan.m1id, p.plan.m2id)
		if p.plan.never {
			undoNow()
			g.conflict(tx, p.plan)
			method1, tx1 := p.e.inv.Method, p.e.tx.ID()
			g.putEntry(e)
			return eff.Ret, engine.Conflict("gatekeeper: %s never commutes with active %s (tx %d)",
				method, method1, tx1)
		}
		ctx.env.Inv1 = p.e.inv
		ctx.log1 = p.e.log
		ctx.pre2 = g.pre2buf[p.off : p.off+p.n]
		ok, err := p.plan.check(ctx)
		if err != nil {
			undoNow()
			g.putEntry(e)
			return eff.Ret, fmt.Errorf("gatekeeper: checking (%s,%s): %w", p.e.inv.Method, method, err)
		}
		if !ok {
			undoNow()
			g.conflict(tx, p.plan)
			inv1 := p.e.inv
			tx1 := p.e.tx.ID()
			g.putEntry(e)
			return eff.Ret, engine.Conflict("gatekeeper: %s%v does not commute with active %s%v (tx %d)",
				method, args, inv1.Method, inv1.Args, tx1)
		}
	}

	// Success: record as active (and in the key index), wire
	// transaction hooks. Both hooks register interface pairs (the
	// gatekeeper / the pooled entry), not closures, so nothing escapes.
	g.indexEntry(method, e)
	e.pos = len(g.active[method])
	g.active[method] = append(g.active[method], e)
	g.nActive++
	g.tele.ObserveActive(g.nActive)
	if es, seen := g.byTx[tx]; !seen {
		tx.OnReleaser(g)
		if n := len(g.txLists); n > 0 {
			l := g.txLists[n-1]
			g.txLists[n-1] = nil
			g.txLists = g.txLists[:n-1]
			g.byTx[tx] = append(l, e)
		} else {
			g.byTx[tx] = []*entry{e}
		}
	} else {
		g.byTx[tx] = append(es, e)
	}
	if eff.Undo != nil {
		e.undo = eff.Undo
		tx.OnUndoer(e)
	}
	return eff.Ret, nil
}

// queueCheck queues one full commutativity check of the incoming
// invocation (method, described by env.Inv2) against active entry ae,
// capturing the plan's non-pure s2 functions first.
func (g *Forward) queueCheck(ae *entry, plan *fwdPlan, method string, env *core.PairEnv, immediate bool) error {
	p := pending{e: ae, plan: plan, off: len(g.pre2buf), n: len(plan.fn2Pre), immediate: immediate}
	if p.n > 0 {
		env.Inv1 = ae.inv
		for _, ft := range plan.fn2Pre {
			v, err := core.EvalTerm(ft, env)
			if err != nil {
				return fmt.Errorf("gatekeeper: evaluating %s for (%s,%s): %w", ft, ae.inv.Method, method, err)
			}
			g.pre2buf = append(g.pre2buf, v)
		}
	}
	g.checks = append(g.checks, p)
	return nil
}

// scanPair queues checks against every active entry of pc.m1 — the seed
// behaviour, kept as the fallback for unindexable pairs and unkeyable
// probe values.
func (g *Forward) scanPair(tx *engine.Tx, e *entry, pc pairCheck, env *core.PairEnv) error {
	entries := g.active[pc.m1]
	if len(entries) == 0 {
		return nil
	}
	g.tele.IncFallbackScan()
	for _, ae := range entries {
		if ae.tx == tx {
			continue
		}
		if err := g.queueCheck(ae, pc.plan, e.inv.Method, env, false); err != nil {
			return err
		}
	}
	return nil
}

// probePair evaluates the incoming invocation's probe keys for an
// indexed pair and queues checks only against colliding active entries
// of pc.m1. A probe value the index cannot canonicalize (or evaluate)
// falls back to the full scan. For purely-disequality conditions a
// collision on a non-NaN key queues an immediate conflict: equal keys
// mean equal values (core.MapKey's contract), which falsifies a guard
// and with it the whole condition. NaN keys collide conservatively —
// NaN ≠ NaN holds under ValueEq — so they still run the checker.
func (g *Forward) probePair(tx *engine.Tx, e *entry, pc pairCheck, env *core.PairEnv) error {
	g.tele.IncProbe()
	g.ctx = checkCtx{env: core.PairEnv{Inv2: e.inv, S1: g.res, S2: g.res}}
	keys := g.probeKeys[:0]
	for _, pk := range pc.plan.keys {
		v, err := pk.probe(&g.ctx)
		if err != nil {
			g.probeKeys = keys
			return g.scanPair(tx, e, pc, env)
		}
		k, kok := core.MapKey(v)
		if !kok {
			g.probeKeys = keys
			return g.scanPair(tx, e, pc, env)
		}
		keys = append(keys, k)
	}
	g.probeKeys = keys
	g.probeGen++
	gen := g.probeGen
	for i, pk := range pc.plan.keys {
		k := keys[i]
		isNaN := k.Kind() == core.KindNaN
		imm := pc.plan.pureDiseq && !isNaN
		for _, ae := range pk.slot.probe(k) {
			if ae.tx == tx || ae.gen == gen {
				continue
			}
			ae.gen = gen
			g.tele.IncCollision()
			if err := g.queueCheck(ae, pc.plan, e.inv.Method, env, imm); err != nil {
				return err
			}
		}
		for _, ae := range pk.slot.unkeyed {
			if ae.tx == tx || ae.gen == gen {
				continue
			}
			ae.gen = gen
			g.tele.IncCollision()
			if err := g.queueCheck(ae, pc.plan, e.inv.Method, env, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// indexEntry computes the entry's key per key slot of its method and
// files it in the corresponding buckets (or as unkeyed where the value
// resists canonicalization).
func (g *Forward) indexEntry(method string, e *entry) {
	slots := g.slots[method]
	if len(slots) == 0 {
		return
	}
	g.ctx = checkCtx{env: core.PairEnv{Inv1: e.inv, S1: g.res, S2: g.res}, log1: e.log}
	if cap(e.keys) >= len(slots) {
		e.keys = e.keys[:len(slots)]
	} else {
		e.keys = make([]core.Value, len(slots))
	}
	for i, s := range slots {
		v, err := s.extract(&g.ctx)
		if err == nil {
			if k, kok := core.MapKey(v); kok {
				e.keys[i] = k
				s.insert(k, e)
				continue
			}
		}
		e.keys[i] = unset
		s.insertUnkeyed(e)
	}
}

// dropFromIndex removes the entry from every key slot it was filed in.
func (g *Forward) dropFromIndex(method string, e *entry) {
	for i, s := range g.slots[method] {
		if i >= len(e.keys) {
			break
		}
		s.remove(e.keys[i], e)
	}
}

// putEntry recycles an entry whose invocation did not join the active
// log (or just left it). Every Value field is zeroed so a recycled
// record retains no user-type references through the pool (heap-growth
// fix: a ref-kind argument or log entry would otherwise pin arbitrary
// user object graphs for the lifetime of the pooled entry).
func (g *Forward) putEntry(e *entry) {
	e.tx = nil
	e.g = nil
	e.undo = nil
	e.inv.Args.Release()
	e.inv = core.Invocation{}
	for i := range e.log {
		e.log[i] = core.Value{}
	}
	for i := range e.keys {
		e.keys[i] = core.Value{}
	}
	e.keys = e.keys[:0]
	e.gen = 0
	e.pos = 0
	entryPool.Put(e)
}

// removeActive swap-deletes the entry from its method's active list,
// keeping the moved entry's pos current.
func (g *Forward) removeActive(m string, e *entry) {
	es := g.active[m]
	last := len(es) - 1
	moved := es[last]
	es[e.pos] = moved
	moved.pos = e.pos
	es[last] = nil
	g.active[m] = es[:last]
}

// ReleaseTx drops all of tx's active invocations and their logs (§3.3.1
// step 4). Installed automatically as a transaction release hook
// (engine.Releaser, so registration allocates nothing). It walks only
// the transaction's own entries, so ending a transaction costs O(its
// invocations) regardless of the active window size; the per-tx entry
// list is recycled for the next transaction.
func (g *Forward) ReleaseTx(tx *engine.Tx) {
	t0 := telemetry.LatClock()
	g.mu.Lock()
	defer g.mu.Unlock()
	defer telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
	es := g.byTx[tx]
	for i, e := range es {
		m := e.inv.Method
		g.removeActive(m, e)
		g.dropFromIndex(m, e)
		g.nActive--
		g.putEntry(e)
		es[i] = nil
	}
	if es != nil {
		g.txLists = append(g.txLists, es[:0])
	}
	delete(g.byTx, tx)
}

// ActiveInvocations reports how many invocations are currently logged
// (for tests and diagnostics).
func (g *Forward) ActiveInvocations() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nActive
}

// conflict attributes one rejected invocation to the plan's method pair
// and emits a trace event on the invoking transaction's worker track.
func (g *Forward) conflict(tx *engine.Tx, plan *fwdPlan) {
	g.tele.Conflict(plan.m1id, plan.m2id)
	if telemetry.TraceEnabled() {
		telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), g.tele.ID(), plan.m1id, plan.m2id)
	}
}

// Stats returns a snapshot of the gatekeeper's work counters, assembled
// from its telemetry detector.
func (g *Forward) Stats() Stats {
	return statsFromSnapshot(g.tele.Snapshot())
}

// Telemetry returns the gatekeeper's telemetry detector, whose snapshot
// additionally attributes checks and conflicts per method pair.
func (g *Forward) Telemetry() *telemetry.Detector { return g.tele }

// statsFromSnapshot maps a telemetry detector snapshot onto the legacy
// Stats shape.
func statsFromSnapshot(s telemetry.DetectorSnapshot) Stats {
	return Stats{
		Invocations:   s.Invocations,
		Checks:        s.Checks,
		Conflicts:     s.Conflicts,
		Rollbacks:     s.Rollbacks,
		LogEntries:    s.LogEntries,
		Probes:        s.Probes,
		Collisions:    s.Collisions,
		FallbackScans: s.FallbackScans,

		FastAdmits:       s.FastAdmits,
		FilterHits:       s.FilterHits,
		OptScans:         s.OptScans,
		OptRetries:       s.OptRetries,
		CascadeFallbacks: s.CascadeFallbacks,

		BatchesWhole:      s.BatchesWhole,
		BatchesSplit:      s.BatchesSplit,
		BatchesSerialized: s.BatchesSerial,
	}
}

// Sync runs f under the gatekeeper's structure mutex, for callers that
// need raw access to the guarded structure outside an Invoke (setup,
// sequential phases, validation).
func (g *Forward) Sync(f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
}

// mentionsRet reports whether the term references the return value of the
// given side anywhere.
func mentionsRet(t core.Term, side core.Side) bool {
	switch x := t.(type) {
	case core.RetTerm:
		return x.Side == side
	case core.FnTerm:
		for _, a := range x.Args {
			if mentionsRet(a, side) {
				return true
			}
		}
	case core.ArithTerm:
		return mentionsRet(x.L, side) || mentionsRet(x.R, side)
	}
	return false
}

// mentionsSide reports whether the term references an argument or return
// value of the given side anywhere.
func mentionsSide(t core.Term, side core.Side) bool {
	switch x := t.(type) {
	case core.ArgTerm:
		return x.Side == side
	case core.RetTerm:
		return x.Side == side
	case core.FnTerm:
		for _, a := range x.Args {
			if mentionsSide(a, side) {
				return true
			}
		}
	case core.ArithTerm:
		return mentionsSide(x.L, side) || mentionsSide(x.R, side)
	}
	return false
}

// containsNonPureFn reports whether t contains a state-function
// application on the given side that is not declared pure.
func containsNonPureFn(t core.Term, side core.Side, pure map[string]bool) bool {
	switch x := t.(type) {
	case core.FnTerm:
		if x.State == side && !pure[x.Fn] {
			return true
		}
		for _, a := range x.Args {
			if containsNonPureFn(a, side, pure) {
				return true
			}
		}
	case core.ArithTerm:
		return containsNonPureFn(x.L, side, pure) || containsNonPureFn(x.R, side, pure)
	}
	return false
}

// secondStateFns collects the distinct s2-state function applications in
// a condition, the mirror image of core.FirstStateFns.
func secondStateFns(c core.Cond) []core.FnTerm {
	var out []core.FnTerm
	for _, ft := range core.FirstStateFns(core.SwapSides(c)) {
		sw := core.SwapTermSides(ft).(core.FnTerm)
		out = append(out, sw)
	}
	return out
}
