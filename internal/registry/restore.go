package registry

import (
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/platform"
	"imc2/internal/store"
)

// Restore rebuilds the registry from a store's recovered state: one
// campaign per record, with its original ID, name, tasks, submission
// order, lifecycle state, and (for settled campaigns) the exact report
// and audit that were logged. ID allocation continues past the highest
// restored ID, so new campaigns never collide with recovered ones.
//
// Campaigns recorded as Closing died (or failed) mid-settle: they are
// materialized as Open with their submissions intact and returned as
// pending, for the caller to re-queue through the normal settle path —
// on a scheduled registry that path is the same admission queue a live
// close uses. The re-run settle is bit-identical to the lost one by the
// engine's determinism guarantees.
//
// Restore must run on an empty registry, before it serves traffic, with
// recoveredAt stamping when the durable state was loaded (the store's
// RecoveredAt). Restored events are already in the log, so restoration
// appends nothing.
func (r *Registry) Restore(recs []*store.CampaignRecord, recoveredAt time.Time) (pending []*Campaign, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ordered) != 0 {
		return nil, imcerr.New(imcerr.CodeConflict, "registry: Restore needs an empty registry (have %d campaigns)", len(r.ordered))
	}
	var maxSeq uint64
	for _, rec := range recs {
		state := rec.State
		requeue := false
		if state == platform.StateClosing {
			state = platform.StateOpen
			requeue = true
		}
		p, perr := platform.Restore(platform.RestoreState{
			Tasks:       rec.Tasks,
			State:       state,
			Submissions: rec.Submissions,
			Report:      rec.Report,
			Audit:       rec.Audit,
		})
		if perr != nil {
			return nil, imcerr.Wrapf(imcerr.CodeOf(perr), perr, "registry: restoring campaign %q", rec.ID)
		}
		c := &Campaign{
			id:          rec.ID,
			name:        rec.Name,
			p:           p,
			cfg:         rec.Config.ToPlatform(),
			sched:       r.sched,
			store:       r.st,
			m:           r.m,
			recoveredAt: recoveredAt,
		}
		s := r.shardFor(c.id)
		s.mu.Lock()
		if _, dup := s.byID[c.id]; dup {
			s.mu.Unlock()
			return nil, imcerr.New(imcerr.CodeConflict, "registry: duplicate campaign %q in recovered state", c.id)
		}
		s.byID[c.id] = c
		s.mu.Unlock()
		r.ordered = append(r.ordered, c)
		r.m.noteCreated()
		if n, ok := parseCampaignID(rec.ID); ok && n > maxSeq {
			maxSeq = n
		}
		if requeue {
			pending = append(pending, c)
		}
	}
	if maxSeq > r.seq.Load() {
		r.seq.Store(maxSeq)
	}
	return pending, nil
}
