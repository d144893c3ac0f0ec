package abslock

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"commlat/internal/core"
	"commlat/internal/engine"
	"commlat/internal/telemetry"
)

// KeyFunc evaluates a pure key function (such as a partition map) used by
// keyed lock acquisitions.
type KeyFunc func(core.Value) core.Value

// maxModes bounds a manageable scheme: mode hold-sets and incompatibility
// rows are 64-bit masks, which comfortably covers every scheme in this
// repository (reduced schemes have a handful of modes; even full
// pre-reduction schemes stay well under 64).
const maxModes = 64

// holder records one transaction's hold on a lock as a bitmask of modes.
type holder struct {
	tx    *engine.Tx
	modes uint64
}

// dlock is the multi-mode lock of one datum.
type dlock struct {
	holders []holder
}

// stripe is one shard of the datum-lock table: its own mutex, lock map,
// per-transaction held-key lists, and a small free list of recycled
// dlocks so steady-state acquisition does not allocate. The padding keeps
// adjacent stripes on separate cache lines.
//
// The lock map is keyed by the datum key's precomputed 64-bit hash with
// small collision buckets, not by the datumKey struct itself: a struct
// key embedding a tagged core.Value would make every map operation hash
// two strings and an interface field, which dominated the guarded
// application profiles. Hashing a uint64 is a single memhash64. Emptied
// buckets are deleted (so distinct-heavy workloads don't grow the map
// without bound) but their backing arrays are recycled through
// freeSlots, keeping steady-state acquisition allocation-free.
type stripe struct {
	mu        sync.Mutex
	data      map[uint64][]dslot
	held      map[*engine.Tx][]datumKey
	free      []*dlock
	freeHeld  [][]datumKey // recycled per-tx held-key lists
	freeSlots [][]dslot    // recycled collision-bucket backing arrays
	mgr       *Manager     // back-pointer for the shared prefilter
	_         [24]byte
}

// dslot is one datum lock in a stripe's collision bucket.
type dslot struct {
	dk datumKey
	l  *dlock
}

// maxFreeDlocks caps each stripe's dlock free list.
const maxFreeDlocks = 64

// Manager enforces a synthesized abstract-locking scheme at run time. It
// keeps one multi-mode lock per datum (argument or return value seen so
// far) plus the whole-structure lock, with per-transaction hold masks.
// Mode compatibility is checked by intersecting the acquired mode's
// incompatibility mask with other holders' mode masks. Locks are
// released when the owning transaction commits or aborts (all abstract
// locks are held to transaction end, per §3.2).
//
// The datum-lock table is striped: keys hash to one of a power-of-two
// number of stripes (sized from GOMAXPROCS), each with its own mutex,
// and the ds-lock has a dedicated stripe of its own, so disjoint
// acquisitions proceed in parallel instead of serializing on one global
// mutex. Held-key lists are partitioned per stripe, so releasing a
// transaction locks only the stripes it actually touched. Within one
// invocation, acquisitions are grouped by stripe and taken in ascending
// stripe order, one stripe lock at a time — no two stripe mutexes are
// ever held together, so lock-order inversion is impossible.
type Manager struct {
	scheme   *Scheme
	keys     map[string]KeyFunc
	incompat []uint64 // per mode: mask of conflicting modes

	mask    uint32
	stripes []stripe

	// fast is the pre-stripe conflict-signature prefilter table (see
	// prefilter.go): plans free of ds-lock acquisitions whose datum
	// cells are unoccupied take their locks without a stripe mutex.
	fast *fastTable

	tele *telemetry.Detector // mode-acquisition counters (mode vocabulary)

	dsMu     sync.Mutex
	ds       dlock
	dsHooked map[*engine.Tx]struct{}
}

type datumKey struct {
	h   uint64 // precomputed v.Hash() ^ fnv64(key); derived, so safe under ==
	key string // "" for identity, else key-function name (namespaces values)
	v   core.Value
}

// numStripes picks the stripe count: the smallest power of two covering
// 4× GOMAXPROCS (over-provisioning reduces collision-induced contention),
// capped to keep idle managers small.
func numStripes() int {
	target := runtime.GOMAXPROCS(0) * 4
	n := 1
	for n < target && n < 256 {
		n <<= 1
	}
	return n
}

// NewManager creates a lock manager for scheme. keys must provide an
// implementation for every key function named by the scheme's
// acquisitions (nil is fine for purely identity schemes). Schemes with
// more than 64 modes are rejected; Reduce() keeps real schemes far below
// that.
func NewManager(scheme *Scheme, keys map[string]KeyFunc) *Manager {
	return newManagerWithStripes(scheme, keys, numStripes())
}

// newManagerWithStripes is the constructor with an explicit stripe count
// (a power of two). Tests use a single-stripe manager as the reference
// oracle for the striped one.
func newManagerWithStripes(scheme *Scheme, keys map[string]KeyFunc, n int) *Manager {
	if len(scheme.Modes) > maxModes {
		panic(fmt.Sprintf("abslock: scheme has %d modes; the manager supports ≤ %d (reduce the scheme or split the ADT)", len(scheme.Modes), maxModes))
	}
	m := &Manager{
		scheme:   scheme,
		keys:     keys,
		incompat: make([]uint64, len(scheme.Modes)),
		mask:     uint32(n - 1),
		stripes:  make([]stripe, n),
		dsHooked: map[*engine.Tx]struct{}{},
	}
	for i := range m.stripes {
		m.stripes[i].data = map[uint64][]dslot{}
		m.stripes[i].held = map[*engine.Tx][]datumKey{}
		m.stripes[i].mgr = m
	}
	m.fast = newFastTable(defaultFastSlots, 0)
	for i := range scheme.Modes {
		var mask uint64
		for j := range scheme.Modes {
			if scheme.Incompat[i][j] {
				mask |= 1 << uint(j)
			}
		}
		m.incompat[i] = mask
	}
	labels := make([]string, len(scheme.Modes))
	for i, mode := range scheme.Modes {
		labels[i] = mode.String()
	}
	m.tele = telemetry.Register("abslock", scheme.ADT, labels)
	return m
}

// Telemetry returns the manager's telemetry detector, whose snapshot
// reports per-mode acquisition/wait counters and per-mode-pair
// conflicts.
func (m *Manager) Telemetry() *telemetry.Detector { return m.tele }

// Scheme returns the scheme the manager enforces.
func (m *Manager) Scheme() *Scheme { return m.scheme }

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (m *Manager) stripeIndex(dk *datumKey) int {
	return int(uint32(dk.h>>32^dk.h) & m.mask)
}

// plannedAcq is one resolved acquisition of an invocation: its datum key
// (ignored for the ds-lock), target stripe (-1 for the ds stripe) and
// mode.
type plannedAcq struct {
	sidx int
	dk   datumKey
	mode int
}

// PreAcquire takes the ds-lock and argument locks for an invocation of
// method with args, in the scheme's modes. On conflict it returns an
// error satisfying engine.IsConflict and leaves any locks it already took
// held (they are released when the transaction aborts).
func (m *Manager) PreAcquire(tx *engine.Tx, method string, args core.Vec) error {
	return m.acquireSet(tx, method, args, core.Value{}, false)
}

// PostAcquire takes the post-execution locks: return-value targets plus
// any guarded acquisitions whose guard inspects the return value. A
// conflict here means the invocation must be rolled back by the
// transaction's undo log.
func (m *Manager) PostAcquire(tx *engine.Tx, method string, args core.Vec, ret core.Value) error {
	return m.acquireSet(tx, method, args, ret, true)
}

// acquireSet resolves the pre- or post-phase acquisitions of an
// invocation (modes, key functions, stripes — all computed outside any
// lock), orders them by stripe, and takes them one stripe at a time.
func (m *Manager) acquireSet(tx *engine.Tx, method string, args core.Vec, ret core.Value, post bool) error {
	var buf [8]plannedAcq
	plan, err := m.planAcqs(buf[:0], method, args, ret, post)
	if err != nil {
		return err
	}
	t0 := telemetry.LatClock()
	// Stage 1: plans free of ds-lock acquisitions try the lock-free
	// prefilter first; a miss on every planned cell takes the locks
	// without touching a stripe.
	if len(plan) > 0 && len(plan) <= len(buf) && plan[0].sidx >= 0 {
		if m.tryAcquire(tx, plan) {
			telemetry.StageObserve(tx.Worker(), telemetry.StageSigFilter, t0)
			return nil
		}
		m.tele.CascadeFilterHit()
		t0 = telemetry.StageObserve(tx.Worker(), telemetry.StageSigFilter, t0)
	}
	for i := 0; i < len(plan); {
		if plan[i].sidx < 0 {
			if err := m.acquireDS(tx, plan[i].mode); err != nil {
				telemetry.StageObserve(tx.Worker(), telemetry.StagePrecise, t0)
				return err
			}
			i++
			continue
		}
		// One stripe lock for the whole run of same-stripe acquisitions.
		s := &m.stripes[plan[i].sidx]
		s.mu.Lock()
		for ; i < len(plan) && &m.stripes[plan[i].sidx] == s; i++ {
			if err := m.acquireInStripe(s, tx, &plan[i].dk, plan[i].mode); err != nil {
				s.mu.Unlock()
				telemetry.StageObserve(tx.Worker(), telemetry.StagePrecise, t0)
				return err
			}
		}
		s.mu.Unlock()
	}
	if len(plan) > 0 {
		telemetry.StageObserve(tx.Worker(), telemetry.StagePrecise, t0)
	}
	return nil
}

// planAcqs resolves the pre- or post-phase acquisitions of one
// invocation into plan (appended and returned), ordered by stripe with
// the ds stripe (-1) first — the lock-free front half of acquireSet.
func (m *Manager) planAcqs(plan []plannedAcq, method string, args core.Vec, ret core.Value, post bool) ([]plannedAcq, error) {
	acqs := m.scheme.Acquire[method]
	for i := range acqs {
		a := &acqs[i]
		if (a.After || a.Target == TargetRet) != post {
			continue
		}
		mode, err := m.pickMode(a, method, args, ret)
		if err != nil {
			return plan, err
		}
		switch a.Target {
		case TargetDS:
			plan = append(plan, plannedAcq{sidx: -1, mode: mode})
		case TargetArg:
			dk, err := m.datumKeyFor(a.Key, args.At(a.Arg))
			if err != nil {
				return plan, err
			}
			plan = append(plan, plannedAcq{sidx: m.stripeIndex(&dk), dk: dk, mode: mode})
		case TargetRet:
			dk, err := m.datumKeyFor(a.Key, ret)
			if err != nil {
				return plan, err
			}
			plan = append(plan, plannedAcq{sidx: m.stripeIndex(&dk), dk: dk, mode: mode})
		}
	}
	// Deterministic per-invocation stripe order (stable insertion sort:
	// the plan is tiny). The ds stripe (-1) sorts first.
	for i := 1; i < len(plan); i++ {
		for j := i; j > 0 && plan[j].sidx < plan[j-1].sidx; j-- {
			plan[j], plan[j-1] = plan[j-1], plan[j]
		}
	}
	return plan, nil
}

func (m *Manager) datumKeyFor(key string, v core.Value) (datumKey, error) {
	if key != "" {
		f, ok := m.keys[key]
		if !ok {
			return datumKey{}, fmt.Errorf("abslock: no implementation for key function %q", key)
		}
		v = f(v)
	}
	// Tagged values carry a cheap precomputed hash; only KindRef datum
	// values (kd-tree points and the like) pay for formatting.
	h := v.Hash()
	if key != "" {
		h ^= fnv64(key)
	}
	return datumKey{h: h, key: key, v: v}, nil
}

// pickMode resolves a (possibly guarded) acquisition's mode against the
// invoking invocation.
func (m *Manager) pickMode(a *Acquisition, method string, args core.Vec, ret core.Value) (int, error) {
	if a.Guard == nil {
		return a.Mode, nil
	}
	ok, err := core.Eval(a.Guard, core.OwnEnv(core.MakeInvocation(method, args, ret)))
	if err != nil {
		return 0, fmt.Errorf("abslock: evaluating guard for %s: %w", method, err)
	}
	if ok {
		return a.WeakMode, nil
	}
	return a.Mode, nil
}

// Invoke guards a complete method invocation: pre-acquire, execute,
// post-acquire. exec runs only if the pre-acquisitions succeed.
func (m *Manager) Invoke(tx *engine.Tx, method string, args core.Vec, exec func() core.Value) (core.Value, error) {
	if err := m.PreAcquire(tx, method, args); err != nil {
		return core.Value{}, err
	}
	ret := exec()
	if err := m.PostAcquire(tx, method, args, ret); err != nil {
		return ret, err
	}
	return ret, nil
}

// acquireDS takes the whole-structure lock on its dedicated stripe.
func (m *Manager) acquireDS(tx *engine.Tx, mode int) error {
	m.dsMu.Lock()
	defer m.dsMu.Unlock()
	isNew, err := m.lockModes(tx, &m.ds, mode)
	if err != nil {
		return err
	}
	if isNew {
		if _, hooked := m.dsHooked[tx]; !hooked {
			m.dsHooked[tx] = struct{}{}
			tx.OnReleaser(m)
		}
	}
	return nil
}

// lookup finds dk's lock in its collision bucket (s.mu held).
func (s *stripe) lookup(dk *datumKey) *dlock {
	slots := s.data[dk.h]
	for i := range slots {
		if slots[i].dk == *dk {
			return slots[i].l
		}
	}
	return nil
}

// insert adds dk's lock to its collision bucket (s.mu held), reusing a
// recycled backing array for fresh buckets when one is available.
func (s *stripe) insert(dk *datumKey, l *dlock) {
	slots, ok := s.data[dk.h]
	if !ok {
		if n := len(s.freeSlots); n > 0 {
			slots = s.freeSlots[n-1]
			s.freeSlots[n-1] = nil
			s.freeSlots = s.freeSlots[:n-1]
		}
	}
	s.data[dk.h] = append(slots, dslot{*dk, l})
}

// remove drops dk from its collision bucket (s.mu held). The emptied
// slot is zeroed (datum keys embed core.Values that may reference user
// data); an emptied bucket is deleted from the map and its backing
// array recycled.
func (s *stripe) remove(dk *datumKey) {
	slots := s.data[dk.h]
	for i := range slots {
		if slots[i].dk == *dk {
			last := len(slots) - 1
			slots[i] = slots[last]
			slots[last] = dslot{}
			if last == 0 {
				delete(s.data, dk.h)
				if len(s.freeSlots) < maxFreeDlocks {
					s.freeSlots = append(s.freeSlots, slots[:0])
				}
			} else {
				s.data[dk.h] = slots[:last]
			}
			return
		}
	}
}

// acquireInStripe must run with s.mu held.
func (m *Manager) acquireInStripe(s *stripe, tx *engine.Tx, dk *datumKey, mode int) error {
	l := s.lookup(dk)
	fresh := false
	if l == nil {
		if n := len(s.free); n > 0 {
			l = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			l = &dlock{}
		}
		s.insert(dk, l)
		fresh = true
	}
	var prevModes uint64
	for i := range l.holders {
		if l.holders[i].tx == tx {
			prevModes = l.holders[i].modes
			break
		}
	}
	isNew, err := m.lockModes(tx, l, mode)
	if err != nil {
		if fresh {
			s.remove(dk) // don't leave an empty lock behind
			s.recycle(l)
		}
		return err
	}
	if isNew {
		// Publish the hold into the shared prefilter before scanning
		// for fast-path holders: a concurrent fast acquirer either sees
		// this increment and diverts to the stripes, or published its
		// slot early enough for the scan below to find it.
		m.fast.filter.Add(dk.h)
		if lst, hooked := s.held[tx]; !hooked {
			if n := len(s.freeHeld); n > 0 {
				lst = s.freeHeld[n-1]
				s.freeHeld[n-1] = nil
				s.freeHeld = s.freeHeld[:n-1]
			}
			s.held[tx] = append(lst, *dk)
			tx.OnReleaser(s)
		} else {
			s.held[tx] = append(lst, *dk)
		}
	}
	if err := m.conflictScan(tx, dk, mode); err != nil {
		// The scan found a conflicting fast-path holder: take back the
		// hold recorded above so a refused acquisition leaves nothing
		// behind — exactly as a lockModes refusal leaves nothing behind.
		m.retractStripeAcq(s, tx, dk, l, isNew, prevModes)
		return err
	}
	return nil
}

// retractStripeAcq undoes one just-recorded stripe acquisition after its
// fast-table conflict scan refused it. For a brand-new holder the holder
// record, held-list entry, and filter increment all go; for a mode
// upgrade the holder's mode mask reverts. Must run with s.mu held.
func (m *Manager) retractStripeAcq(s *stripe, tx *engine.Tx, dk *datumKey, l *dlock, isNew bool, prevModes uint64) {
	if !isNew {
		for i := range l.holders {
			if l.holders[i].tx == tx {
				l.holders[i].modes = prevModes
				break
			}
		}
		return
	}
	dropHolder(l, tx)
	m.fast.filter.Remove(dk.h)
	if lst := s.held[tx]; len(lst) > 0 {
		n := len(lst) - 1
		lst[n] = datumKey{}
		s.held[tx] = lst[:n]
	}
	if len(l.holders) == 0 {
		s.remove(dk)
		s.recycle(l)
	}
}

// lockModes adds mode to tx's hold on l, reporting whether tx is a new
// holder of l. The caller must hold the lock guarding l.
func (m *Manager) lockModes(tx *engine.Tx, l *dlock, mode int) (bool, error) {
	mask := m.incompat[mode]
	var own *holder
	for i := range l.holders {
		h := &l.holders[i]
		if h.tx == tx {
			own = h
			continue
		}
		if conflicting := h.modes & mask; conflicting != 0 {
			// Attribute the conflict to (held mode, acquiring mode); with
			// several conflicting held modes, the lowest-numbered one.
			held := uint16(bits.TrailingZeros64(conflicting))
			m.tele.ModeWait(uint16(mode))
			m.tele.Conflict(held, uint16(mode))
			telemetry.EmitConflict(tx.Worker(), tx.ID(), tx.Item(), m.tele.ID(), held, uint16(mode))
			return false, engine.Conflict("abstract lock held in a conflicting mode by tx %d (%s acquiring %s)",
				h.tx.ID(), m.scheme.ADT, m.scheme.Modes[mode])
		}
	}
	m.tele.ModeAcquire(uint16(mode))
	if own != nil {
		own.modes |= 1 << uint(mode)
		return false, nil
	}
	l.holders = append(l.holders, holder{tx: tx, modes: 1 << uint(mode)})
	return true, nil
}

func (s *stripe) recycle(l *dlock) {
	for i := range l.holders {
		l.holders[i] = holder{}
	}
	l.holders = l.holders[:0]
	if len(s.free) < maxFreeDlocks {
		s.free = append(s.free, l)
	}
}

// ReleaseTx drops everything tx holds in this stripe. The stripe itself
// is the transaction's release hook (engine.Releaser), installed on the
// transaction's first acquisition there, so registration allocates no
// closure. The held-key list is zeroed (datum keys embed core.Values
// that may reference user data) and recycled.
func (s *stripe) ReleaseTx(tx *engine.Tx) {
	t0 := telemetry.LatClock()
	defer telemetry.StageObserve(tx.Worker(), telemetry.StageCommit, t0)
	s.mu.Lock()
	lst := s.held[tx]
	for i := range lst {
		dk := &lst[i]
		if l := s.lookup(dk); l != nil {
			dropHolder(l, tx)
			s.mgr.fast.filter.Remove(dk.h)
			if len(l.holders) == 0 {
				s.remove(dk)
				s.recycle(l)
			}
		}
		lst[i] = datumKey{}
	}
	if lst != nil {
		s.freeHeld = append(s.freeHeld, lst[:0])
	}
	delete(s.held, tx)
	s.mu.Unlock()
}

// ReleaseTx drops the transaction's ds-lock hold; the Manager is the
// ds-lock's release hook (engine.Releaser).
func (m *Manager) ReleaseTx(tx *engine.Tx) { m.releaseDS(tx) }

func (m *Manager) releaseDS(tx *engine.Tx) {
	m.dsMu.Lock()
	dropHolder(&m.ds, tx)
	delete(m.dsHooked, tx)
	m.dsMu.Unlock()
}

// ReleaseAll drops every lock the transaction holds, across all stripes.
// Per-stripe release hooks installed at acquisition time normally take
// care of this at transaction end, each touching only its own stripe;
// ReleaseAll is the exhaustive variant for callers managing locks
// outside a transaction lifecycle. It is idempotent.
func (m *Manager) ReleaseAll(tx *engine.Tx) {
	m.releaseDS(tx)
	for i := range m.stripes {
		m.stripes[i].ReleaseTx(tx)
	}
}

func dropHolder(l *dlock, tx *engine.Tx) {
	for i := range l.holders {
		if l.holders[i].tx == tx {
			last := len(l.holders) - 1
			l.holders[i] = l.holders[last]
			l.holders = l.holders[:last]
			return
		}
	}
}

// HeldLocks reports how many distinct data locks are currently held,
// fast-path holds included (for tests and diagnostics).
func (m *Manager) HeldLocks() int {
	n := int(m.fast.nLive.Load())
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		for _, slots := range s.data {
			n += len(slots)
		}
		s.mu.Unlock()
	}
	return n
}
