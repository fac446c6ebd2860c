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
// appends nothing. It is all or nothing: a record that does not restore
// leaves the registry empty and its ID sequence untouched, so a retry
// with corrected records can still run.
func (r *Registry) Restore(recs []*store.CampaignRecord, recoveredAt time.Time) (pending []*Campaign, err error) {
	r.createMu.Lock()
	defer r.createMu.Unlock()
	if n := r.Len(); n != 0 {
		return nil, imcerr.New(imcerr.CodeConflict, "registry: Restore needs an empty registry (have %d campaigns)", n)
	}
	cs := make([]*Campaign, 0, len(recs))
	seen := make(map[string]bool, len(recs))
	seq := r.seq
	for _, rec := range recs {
		if seen[rec.ID] {
			return nil, imcerr.New(imcerr.CodeConflict, "registry: duplicate campaign %q in recovered state", rec.ID)
		}
		seen[rec.ID] = true
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
		c := r.newCampaign(rec.ID, rec.Name, p, rec.Config.ToPlatform())
		c.recoveredAt = recoveredAt
		cs = append(cs, c)
		if n, ok := parseCampaignID(rec.ID); ok && n > seq {
			seq = n
		}
		if requeue {
			pending = append(pending, c)
		}
	}
	r.publish(cs...)
	r.seq = seq
	return pending, nil
}
