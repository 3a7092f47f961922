package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/tree"
)

// ErrGone is wrapped by GetAsOf/Lease when the requested generation of
// a resident document has been retired (garbage-collected); the HTTP
// layer maps it to 410 for cursor resumes.
var ErrGone = errors.New("generation retired")

// ErrConflict is wrapped by Patch when the caller's base generation is
// no longer the latest — the optimistic-concurrency failure. The HTTP
// layer maps it to 409.
var ErrConflict = errors.New("base generation is not latest")

// chain is the MVCC history of one document: an append-only sequence of
// immutable generations. latest is read lock-free on the query fast
// path; gens holds every generation still readable (latest, plus older
// ones kept alive by read references or leases).
type chain struct {
	mu      sync.Mutex
	latest  atomic.Pointer[Handle]
	gens    map[Gen]*genEntry
	nextGen Gen
	evicted bool
}

// genEntry tracks what keeps one generation alive: read references
// (requests in flight, and Pin) and time-bounded leases (issued cursor
// tokens, redeemed when the cursor is consumed). Leases are fungible —
// any redeem releases the soonest-expiring one — because the store
// cannot tell which outstanding token came back.
type genEntry struct {
	h  *Handle
	ch *chain
	// refs counts read references, or is retiredRefs once the entry is
	// retired. References are taken by compare-and-swap and the sweep
	// retires only by swapping 0 for retiredRefs, so a reader either
	// gets its reference in before the retire (and blocks it) or sees
	// the entry retired and re-resolves — without taking ch.mu, so a
	// latest-generation read never waits behind a patch.
	refs   atomic.Int64
	leases []int64 // unix-nano expiries, unordered; guarded by ch.mu
}

// retiredRefs marks a retired genEntry's reference count.
const retiredRefs = -1

// acquire takes a read reference unless the entry is retired.
func (e *genEntry) acquire() bool {
	for {
		r := e.refs.Load()
		if r == retiredRefs {
			return false
		}
		if e.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// release drops a read reference, reporting whether it was the last.
// It is a no-op on a retired entry (evict overrides references) and on
// an entry without references (an unbalanced Unpin).
func (e *genEntry) release() bool {
	for {
		r := e.refs.Load()
		if r <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(r, r-1) {
			return r == 1
		}
	}
}

// addGen registers a freshly built handle as generation gen of ch.
// Caller holds ch.mu or owns ch exclusively.
func (ch *chain) addGen(gen Gen, h *Handle) {
	h.Gen, h.Stats.Gen = gen, gen
	h.ent = &genEntry{h: h, ch: ch}
	ch.gens[gen] = h.ent
}

// genSeedMask keeps entropy-seeded generation counters within 2^52 so
// they survive a round trip through JSON numbers (float64 mantissa).
const genSeedMask = 1<<52 - 1

// newChain wraps a freshly built generation-one handle. The counter is
// seeded from the clock (scrambled by the Fibonacci-hashing constant)
// rather than starting at 1, so a generation id never aliases a
// different incarnation of the same document id — across evict+reload
// and across daemon restarts.
func newChain(h *Handle) *chain {
	seed := Gen(uint64(time.Now().UnixNano())*0x9E3779B97F4A7C15) & genSeedMask
	if seed == 0 {
		seed = 1
	}
	ch := &chain{gens: make(map[Gen]*genEntry), nextGen: seed + 1}
	ch.addGen(seed, h)
	ch.latest.Store(h)
	return ch
}

// Patch applies a subtree patch to the latest generation of id and
// publishes the result as a new generation, maintaining the index
// incrementally from the parent generation instead of rebuilding. If
// base is non-zero the patch only applies when base is still the latest
// generation (optimistic concurrency); base zero means "latest,
// whatever it is". Existing readers are untouched: they keep the
// generation they hold.
func (s *Store) Patch(id string, base Gen, pt tree.Patch) (*Handle, error) {
	ch := s.chainFor(id)
	if ch == nil {
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	ch.mu.Lock()
	cur := ch.latest.Load()
	if cur == nil || ch.evicted {
		ch.mu.Unlock()
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	if base != NoGen && cur.Gen != base {
		ch.mu.Unlock()
		return nil, fmt.Errorf("store: document %q: patch base gen %d, latest is %d: %w",
			id, base, cur.Gen, ErrConflict)
	}
	newDoc, dl, err := cur.Doc.Apply(pt)
	if err != nil {
		ch.mu.Unlock()
		return nil, err
	}
	gen := ch.nextGen
	ch.nextGen++
	h := newHandle(id, newDoc, index.Apply(cur.Index, newDoc, dl), SourcePatch)
	ch.addGen(gen, h)
	ch.latest.Store(h)
	retiredGens := ch.sweepLocked(time.Now().UnixNano())
	ch.mu.Unlock()
	s.patches.Add(1)
	s.notifyRetired(id, retiredGens)
	return h, nil
}

// GetAsOf returns the handle for a specific generation of id. A missing
// document is ErrNotFound; a resident document whose requested
// generation has been retired is ErrGone (the time-travel window
// closed).
func (s *Store) GetAsOf(id string, gen Gen) (*Handle, error) {
	ch := s.chainFor(id)
	if ch == nil {
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	e, ok := ch.gens[gen]
	if !ok {
		return nil, fmt.Errorf("store: document %q generation %d: %w", id, gen, ErrGone)
	}
	s.touchMapped(id)
	return e.h, nil
}

// Acquire returns generation gen of id (NoGen: the latest) with a read
// reference held: no patch or sweep retires it until Release, so a
// request can issue a cursor token for it after any number of
// concurrent patches. The latest generation is acquired without locks;
// if a patch retires it between the load and the reference, the read
// re-resolves latest. A missing document is ErrNotFound; a retired
// generation is ErrGone.
func (s *Store) Acquire(id string, gen Gen) (*Handle, error) {
	ch := s.chainFor(id)
	if ch == nil {
		return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	if gen == NoGen {
		for {
			h := ch.latest.Load()
			if h == nil {
				return nil, fmt.Errorf("store: document %q: %w", id, ErrNotFound)
			}
			if h.ent.acquire() {
				s.touchMapped(id)
				return h, nil
			}
		}
	}
	ch.mu.Lock()
	e, ok := ch.gens[gen]
	// Entries leave gens in the same critical section that retires
	// them, so one still listed always takes the reference.
	ok = ok && e.acquire()
	ch.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: document %q generation %d: %w", id, gen, ErrGone)
	}
	s.touchMapped(id)
	return e.h, nil
}

// Release drops a read reference taken by Acquire. Dropping the last
// one on a generation a patch has since superseded retires it, unless a
// lease still keeps it.
func (s *Store) Release(h *Handle) {
	ch := h.ent.ch
	if !h.ent.release() || ch.latest.Load() == h {
		return
	}
	ch.mu.Lock()
	retiredGens := ch.sweepLocked(time.Now().UnixNano())
	ch.mu.Unlock()
	s.notifyRetired(h.ID, retiredGens)
}

// Pin takes a read reference on (id, gen), keeping the generation
// readable across later patches until Unpin.
func (s *Store) Pin(id string, gen Gen) error {
	_, err := s.Acquire(id, gen)
	return err
}

// Unpin drops a Pin reference. When the last reference and lease of a
// non-latest generation drain, the generation is retired.
func (s *Store) Unpin(id string, gen Gen) {
	ch := s.chainFor(id)
	if ch == nil {
		return
	}
	ch.mu.Lock()
	e := ch.gens[gen]
	ch.mu.Unlock()
	if e != nil {
		s.Release(e.h)
	}
}

// Lease keeps (id, gen) readable until the deadline — the lifetime of
// an issued cursor token. Redeem releases it early when the token is
// consumed; an abandoned token simply expires.
func (s *Store) Lease(id string, gen Gen, until time.Time) error {
	ch := s.chainFor(id)
	if ch == nil {
		return fmt.Errorf("store: document %q: %w", id, ErrNotFound)
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	e, ok := ch.gens[gen]
	if !ok {
		return fmt.Errorf("store: document %q generation %d: %w", id, gen, ErrGone)
	}
	e.leases = append(e.leases, until.UnixNano())
	return nil
}

// Redeem releases one outstanding lease on (id, gen) — the
// soonest-expiring one, since leases are fungible — and sweeps.
func (s *Store) Redeem(id string, gen Gen) {
	ch := s.chainFor(id)
	if ch == nil {
		return
	}
	ch.mu.Lock()
	if e, ok := ch.gens[gen]; ok && len(e.leases) > 0 {
		min := 0
		for i, exp := range e.leases {
			if exp < e.leases[min] {
				min = i
			}
		}
		e.leases[min] = e.leases[len(e.leases)-1]
		e.leases = e.leases[:len(e.leases)-1]
	}
	retiredGens := ch.sweepLocked(time.Now().UnixNano())
	ch.mu.Unlock()
	s.notifyRetired(id, retiredGens)
}

// sweepLocked retires every generation that is not the latest and has
// no read references and no unexpired leases. Caller holds ch.mu; the
// retired generation ids are returned so the callback can run outside
// locks.
func (ch *chain) sweepLocked(nowNS int64) []Gen {
	latest := ch.latest.Load()
	var retired []Gen
	for gen, e := range ch.gens {
		// Compact expired leases first so they can't keep a gen alive.
		kept := e.leases[:0]
		for _, exp := range e.leases {
			if exp > nowNS {
				kept = append(kept, exp)
			}
		}
		e.leases = kept
		if latest != nil && e.h == latest && !ch.evicted {
			continue
		}
		if len(e.leases) == 0 && e.refs.CompareAndSwap(0, retiredRefs) {
			delete(ch.gens, gen)
			retired = append(retired, gen)
		}
	}
	return retired
}

// notifyRetired fires the retire callback for each generation, outside
// all store and chain locks.
func (s *Store) notifyRetired(id string, gens []Gen) {
	if len(gens) == 0 {
		return
	}
	s.retired.Add(uint64(len(gens)))
	s.mu.RLock()
	fn := s.retireFn
	s.mu.RUnlock()
	if fn == nil {
		return
	}
	for _, g := range gens {
		fn(id, g)
	}
}

// MVCCStats aggregates the store's generation-chain accounting.
type MVCCStats struct {
	// LiveGenerations counts readable generations across all documents
	// (at least one per resident document).
	LiveGenerations int `json:"live_generations"`
	// PinnedGenerations counts non-latest generations kept alive by
	// pins or leases — the time-travel working set.
	PinnedGenerations int `json:"pinned_generations"`
	// Patches counts successfully applied patches since process start.
	Patches uint64 `json:"patches"`
	// Retired counts generations garbage-collected since process start.
	Retired uint64 `json:"retired"`
}

// AddTo accumulates m into dst (for cross-shard aggregation).
func (m MVCCStats) AddTo(dst *MVCCStats) {
	dst.LiveGenerations += m.LiveGenerations
	dst.PinnedGenerations += m.PinnedGenerations
	dst.Patches += m.Patches
	dst.Retired += m.Retired
}

// MVCC reports generation-chain statistics. It sweeps expired leases as
// a side effect, so periodic stats scraping doubles as the lease
// janitor — no dedicated background goroutine needed.
func (s *Store) MVCC() MVCCStats {
	s.mu.RLock()
	type idChain struct {
		id string
		ch *chain
	}
	chains := make([]idChain, 0, len(s.docs))
	for id, ch := range s.docs {
		chains = append(chains, idChain{id, ch})
	}
	s.mu.RUnlock()
	st := MVCCStats{
		Patches: s.patches.Load(),
		Retired: s.retired.Load(),
	}
	now := time.Now().UnixNano()
	for _, ic := range chains {
		ic.ch.mu.Lock()
		retiredGens := ic.ch.sweepLocked(now)
		latest := ic.ch.latest.Load()
		st.LiveGenerations += len(ic.ch.gens)
		for _, e := range ic.ch.gens {
			if e.h != latest {
				st.PinnedGenerations++
			}
		}
		ic.ch.mu.Unlock()
		s.notifyRetired(ic.id, retiredGens)
		st.Retired = s.retired.Load()
	}
	return st
}
