// Package registry hosts many concurrent crowdsourcing campaigns inside
// one process — the multiplexing the paper's Fig. 1 platform needs to
// serve more than a single auction per daemon. Lookups and listings take
// only a read lock on one index, so they never wait on a creation's
// durable append, and each campaign settles under its own lifecycle (see
// internal/platform.State), so a long two-stage settle in one campaign
// cannot block traffic to any other.
package registry

import (
	"strconv"
	"strings"
	"sync"

	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/tracing"
)

// Registry is a concurrent campaign store. The zero value is not usable;
// construct with New.
type Registry struct {
	// sched, when non-nil, is the registry-wide settle scheduler: every
	// campaign settle acquires an admission slot from it and runs its
	// truth-discovery passes on its shared pool.
	sched *sched.Scheduler

	// st, when non-nil, receives every campaign mutation as a durable
	// event (see internal/store). The nil default is the in-memory-only
	// registry with zero overhead on the hot submission path.
	st store.Store

	// m, when non-nil, holds the registry's obs instruments (see
	// WithObservability). Nil is the uninstrumented registry.
	m *regMetrics

	// tracer, when non-nil, is handed to every campaign so settles are
	// traced (see WithTracing). Nil is the untraced registry — zero
	// clock reads, zero allocations on the hot paths.
	tracer *tracing.Tracer

	// createMu serializes creation and restoration: minting an ID,
	// appending its created event, and publishing the campaign happen as
	// one step, so created events reach the log in ID order (replay
	// asserts it). seq is the last minted ID's number. Lock order:
	// createMu before mu and before the store's own lock.
	createMu sync.Mutex
	seq      uint64

	// mu guards the index: byID for lookups, and ordered, which lists
	// campaigns in creation (= ID) order. Campaigns are never removed,
	// so pagination is a slice copy — List must not walk and sort the
	// whole store per request (an unauthenticated client could make
	// that a cheap CPU drain on a large registry). Readers never wait on
	// a durable append: creation takes mu only to publish.
	mu      sync.RWMutex
	byID    map[string]*Campaign
	ordered []*Campaign
}

// Option configures a registry at construction.
type Option func(*Registry)

// WithScheduler attaches a registry-wide settle scheduler: campaign
// settles acquire an admission slot from it (FIFO, bounded by its
// MaxConcurrentSettles) and run their truth-discovery passes on its
// shared worker pool instead of spawning a pool per settle. Reports are
// bit-identical with and without a scheduler; only aggregate resource
// use changes. The caller keeps ownership and Closes the scheduler
// after the registry's settles drain; one scheduler may serve several
// registries.
func WithScheduler(s *sched.Scheduler) Option {
	return func(r *Registry) { r.sched = s }
}

// WithStore attaches a durable event store: every campaign mutation
// (creation, open, accepted submissions, close requests, settles,
// cancels) appends an event before the registry acknowledges it, and
// a settled report is durable before the campaign reads Settled. The
// caller keeps ownership: Close the store after the registry's settles
// drain. Use Restore to rebuild the registry from the store's state
// before serving traffic.
func WithStore(st store.Store) Option {
	return func(r *Registry) { r.st = st }
}

// WithTracing attaches a tracer: every campaign settle gets a span tree
// (admission wait, truth iterations, auction, durable appends) in the
// tracer's flight recorder. Settles already inside a trace — wire
// requests — join it; embedder-driven settles open their own root. A
// nil tracer is the untraced default.
func WithTracing(tr *tracing.Tracer) Option {
	return func(r *Registry) { r.tracer = tr }
}

// New returns an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{byID: make(map[string]*Campaign)}
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

// newCampaign wraps an engine with the registry's identity and shared
// resources.
func (r *Registry) newCampaign(id, name string, p *platform.Platform, cfg platform.Config) *Campaign {
	return &Campaign{id: id, name: name, p: p, cfg: cfg, sched: r.sched, store: r.st, m: r.m, tracer: r.tracer}
}

// publish makes campaigns visible to Get, List and Len at once.
func (r *Registry) publish(cs ...*Campaign) {
	r.mu.Lock()
	for _, c := range cs {
		r.byID[c.id] = c
	}
	r.ordered = append(r.ordered, cs...)
	r.mu.Unlock()
	for range cs {
		r.m.noteCreated()
	}
}

// nextID mints a campaign ID. Zero-padded hex of a monotone counter, so
// lexicographic order is creation order and List pages deterministically.
// Callers hold createMu.
func (r *Registry) nextID() string {
	const hexDigits = "0123456789abcdef"
	r.seq++
	n := r.seq
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
	r.createMu.Lock()
	defer r.createMu.Unlock()
	c := r.newCampaign(r.nextID(), name, p, cfg)
	if r.st != nil {
		// Durability before visibility: the created event is on disk
		// before any client can learn the campaign's ID.
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
	r.publish(c)
	return c, nil
}

// Get looks a campaign up by ID.
func (r *Registry) Get(id string) (*Campaign, error) {
	r.mu.RLock()
	c := r.byID[id]
	r.mu.RUnlock()
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
