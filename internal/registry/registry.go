// Package registry hosts many concurrent crowdsourcing campaigns inside
// one process — the multiplexing the paper's Fig. 1 platform needs to
// serve more than a single auction per daemon. The store is sharded so
// campaign lookup and creation never contend on a single lock, and each
// campaign settles under its own lifecycle (see internal/platform.State),
// so a long two-stage settle in one campaign cannot block traffic to any
// other.
package registry

import (
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/tracing"
)

// numShards spreads campaigns over independent locks. A power of two
// keeps the modulo cheap; 16 shards comfortably serve thousands of
// campaigns.
const numShards = 16

// Registry is a concurrent campaign store. The zero value is not usable;
// construct with New.
type Registry struct {
	seq    atomic.Uint64
	shards [numShards]shard

	// sched, when non-nil, is the registry-wide settle scheduler: every
	// campaign settle acquires an admission slot from it and runs its
	// truth-discovery passes on its shared pool. ownsSched records
	// whether Close may stop it (true only when the scheduler was built
	// for this registry, not injected and possibly shared).
	sched     *sched.Scheduler
	ownsSched bool

	// st, when non-nil, receives every campaign mutation as a durable
	// event (see internal/store). The nil default is the in-memory-only
	// registry with zero overhead on the hot submission path. ownsStore
	// records whether Close may close it. storeErr latches a store that
	// failed to open (the facade's WithStoreDir): campaign creation then
	// fails loudly instead of silently running without durability.
	st        store.Store
	ownsStore bool
	storeErr  error

	// m, when non-nil, holds the registry's obs instruments (see
	// WithObservability). Nil is the uninstrumented registry.
	m *regMetrics

	// tracer, when non-nil, is handed to every campaign so settles are
	// traced (see WithTracing). Nil is the untraced registry — zero
	// clock reads, zero allocations on the hot paths.
	tracer *tracing.Tracer

	// ordered lists campaigns in creation (= ID) order. Campaigns are
	// never removed, so pagination is a slice copy — List must not walk
	// and sort the whole store per request (an unauthenticated client
	// could make that a cheap CPU drain on a large registry).
	mu      sync.RWMutex
	ordered []*Campaign
}

type shard struct {
	mu   sync.RWMutex
	byID map[string]*Campaign
}

// Option configures a registry at construction.
type Option func(*Registry)

// WithScheduler attaches a registry-wide settle scheduler: campaign
// settles acquire an admission slot from it (FIFO, bounded by its
// MaxConcurrentSettles) and run their truth-discovery passes on its
// shared worker pool instead of spawning a pool per settle. Reports are
// bit-identical with and without a scheduler; only aggregate resource
// use changes.
// The caller keeps ownership: the registry's Close will not stop a
// scheduler attached this way (it may be shared with other registries);
// Close the scheduler itself when done. Use WithOwnedScheduler to hand
// the registry a scheduler built just for it.
func WithScheduler(s *sched.Scheduler) Option {
	return func(r *Registry) { r.sched, r.ownsSched = s, false }
}

// WithOwnedScheduler attaches a scheduler the registry owns: the
// registry's Close stops its shared pool. For schedulers built
// per-registry (e.g. a facade shorthand), never for one shared across
// registries.
func WithOwnedScheduler(s *sched.Scheduler) Option {
	return func(r *Registry) { r.sched, r.ownsSched = s, true }
}

// WithStore attaches a durable event store: every campaign mutation
// (creation, open, accepted submissions, close requests, settles,
// cancels) appends an event before the registry acknowledges it, and
// a settled report is durable before the campaign reads Settled. The
// caller keeps ownership: Close the store after the registry's settles
// drain. Use Restore to rebuild the registry from the store's state
// before serving traffic.
func WithStore(st store.Store) Option {
	return func(r *Registry) { r.st, r.ownsStore = st, false }
}

// WithOwnedStore attaches a store the registry owns: the registry's
// Close closes it (flushing the WAL). For stores opened just for this
// registry, never for one shared across registries.
func WithOwnedStore(st store.Store) Option {
	return func(r *Registry) { r.st, r.ownsStore = st, true }
}

// WithTracing attaches a tracer: every campaign settle gets a span tree
// (admission wait, truth iterations, auction, durable appends) in the
// tracer's flight recorder. Settles already inside a trace — wire
// requests — join it; embedder-driven settles open their own root. A
// nil tracer is the untraced default.
func WithTracing(tr *tracing.Tracer) Option {
	return func(r *Registry) { r.tracer = tr }
}

// WithStoreError poisons the registry with a store-open failure:
// campaign creation returns the error instead of running without
// durability the operator asked for. The facade's WithStoreDir uses it
// because functional options cannot return errors.
func WithStoreError(err error) Option {
	return func(r *Registry) { r.storeErr = err }
}

// New returns an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{}
	for i := range r.shards {
		r.shards[i].byID = make(map[string]*Campaign)
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Scheduler returns the registry-wide settle scheduler, or nil when
// campaigns settle unscheduled.
func (r *Registry) Scheduler() *sched.Scheduler { return r.sched }

// Store returns the registry's durable event store, or nil when the
// registry is in-memory only.
func (r *Registry) Store() store.Store { return r.st }

// Close releases the registry's resources: it stops the shared worker
// pool of a scheduler the registry owns (WithOwnedScheduler) and closes
// a store the registry owns (WithOwnedStore), flushing its WAL. It is a
// no-op without either, on a second call, and for caller-provided
// scheduler/store — those may serve other registries, so their owners
// Close them. Callers must let in-flight settles drain before Close, or
// a settle's final durable write can race the store closing.
func (r *Registry) Close() {
	if r.ownsSched && r.sched != nil {
		r.sched.Close()
	}
	if r.ownsStore && r.st != nil {
		_ = r.st.Close()
	}
}

func (r *Registry) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &r.shards[h.Sum32()%numShards]
}

// nextID mints a campaign ID. Zero-padded hex of a monotone counter, so
// lexicographic order is creation order and List pages deterministically.
func (r *Registry) nextID() string {
	const hexDigits = "0123456789abcdef"
	n := r.seq.Add(1)
	buf := []byte("cmp-0000000000000000")
	for i := len(buf) - 1; n > 0; i-- {
		buf[i] = hexDigits[n&0xf]
		n >>= 4
	}
	return string(buf)
}

// parseCampaignID inverts nextID: the numeric value behind a
// registry-minted campaign ID. ok is false for foreign IDs.
func parseCampaignID(id string) (uint64, bool) {
	const prefix = "cmp-"
	if !strings.HasPrefix(id, prefix) || len(id) != len(prefix)+16 {
		return 0, false
	}
	n, err := strconv.ParseUint(id[len(prefix):], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Create opens a new campaign over the given tasks and registers it. With
// draft true the campaign starts in StateDraft and must be opened before
// it accepts submissions.
func (r *Registry) Create(name string, tasks []model.Task, cfg platform.Config, draft bool) (*Campaign, error) {
	var (
		p   *platform.Platform
		err error
	)
	if draft {
		p, err = platform.NewDraft(tasks)
	} else {
		p, err = platform.New(tasks)
	}
	if err != nil {
		return nil, err
	}
	if r.storeErr != nil {
		return nil, imcerr.Wrapf(imcerr.CodeInternal, r.storeErr, "registry: campaign store unavailable")
	}
	// Mint the ID, insert, and append under r.mu so ordered stays in
	// strict ID order even when creations race. The shard insert happens
	// before the ordered append: a campaign must be Get-able from the
	// moment List can return it, or a client could 404 on an ID the
	// server just listed. (Lock order r.mu → shard.mu is safe: no path
	// acquires r.mu while holding a shard lock.)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Campaign{id: r.nextID(), name: name, p: p, cfg: cfg, sched: r.sched, store: r.st, m: r.m, tracer: r.tracer}
	if r.st != nil {
		// Durability before visibility: the created event is on disk
		// before any client can learn the campaign's ID. Holding r.mu
		// across the append also serializes created events into ID
		// order, which replay asserts.
		ev := store.Event{
			Type:     store.EventCreated,
			Campaign: c.id,
			Created: &store.CreatedPayload{
				Name:   name,
				Tasks:  p.Tasks(),
				Draft:  draft,
				Config: store.ConfigFromPlatform(cfg),
			},
		}
		if err := r.st.Append(ev); err != nil {
			return nil, imcerr.Wrapf(imcerr.CodeInternal, err, "registry: persisting campaign creation")
		}
	}
	s := r.shardFor(c.id)
	s.mu.Lock()
	s.byID[c.id] = c
	s.mu.Unlock()
	r.ordered = append(r.ordered, c)
	r.m.noteCreated()
	return c, nil
}

// Get looks a campaign up by ID.
func (r *Registry) Get(id string) (*Campaign, error) {
	s := r.shardFor(id)
	s.mu.RLock()
	c := s.byID[id]
	s.mu.RUnlock()
	if c == nil {
		return nil, imcerr.New(imcerr.CodeNotFound, "registry: no campaign %q", id)
	}
	return c, nil
}

// Len counts registered campaigns.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ordered)
}

// List returns one page of campaigns in creation (= ID) order plus the
// total count. Offset past the end yields an empty page; limit <= 0
// means "the rest". Cost is O(page), not O(registry): the creation-
// ordered index makes pagination a bounded copy.
func (r *Registry) List(offset, limit int) ([]*Campaign, int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := len(r.ordered)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	page := r.ordered[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	return append([]*Campaign(nil), page...), total
}
