package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"imc2/internal/platform"
	"imc2/internal/wire"
)

// session is one worker session's timings, all from its due time except
// postRTT, the submission request alone.
type session struct {
	read, submit, postRTT time.Duration
}

// sessionPart is the sessions part against one server: the open
// campaigns its slots name, and what its sessions measured.
type sessionPart struct {
	c    *client
	sh   *shape
	rate float64
	tr   *tracer
	// campaigns are the open campaigns' URLs and the submissions each
	// must hold once every slot has run.
	campaigns []string
	want      []int
	sessions  []session
	// lag is how late the generator released each session past its due
	// time.
	lag []time.Duration
}

// newSessionPart opens, on the server at base, the campaigns of shape sh
// that slots name (see inputs.slots).
func newSessionPart(c *client, base string, sh *shape, rate float64, slots []int, tr *tracer) (*sessionPart, error) {
	sp := &sessionPart{c: c, sh: sh, rate: rate, tr: tr}
	workers := len(sh.single)
	for _, slot := range slots {
		for len(sp.want) <= slot/workers {
			raw, err := c.do(http.MethodPost, base+"/v2/campaigns", sh.create, http.StatusCreated)
			if err != nil {
				return nil, err
			}
			var info wire.CampaignInfo
			if err := decode(raw, "created campaign", &info); err != nil {
				return nil, err
			}
			sp.campaigns = append(sp.campaigns, base+"/v2/campaigns/"+url.PathEscape(info.ID))
			sp.want = append(sp.want, 0)
		}
		sp.want[slot/workers]++
	}
	return sp, nil
}

// run runs one session per slot in an open loop at the part's rate. Each
// session GETs its campaign's snapshot, then POSTs one single-worker
// submission; it is timed from its due time, so a stall delays every
// session queued behind it. At most maxConns sessions are in flight.
func (sp *sessionPart) run(slots []int) error {
	n, workers := len(slots), len(sp.sh.single)
	type job struct {
		s   int
		due time.Time
	}
	// Sized to every session, so the generator never blocks on a busy
	// client: a backlog waits in the queue and shows in the latencies.
	jobs := make(chan job, n)
	sessions := make([]session, n)
	errs := make([]error, maxConns)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				if errs[w] != nil {
					continue
				}
				slot := slots[j.s]
				sessions[j.s], errs[w] = runSession(sp.c, sp.campaigns[slot/workers], sp.sh.single[slot%workers], j.due, sp.tr)
			}
		}(w)
	}
	start := time.Now()
	interval := time.Duration(float64(time.Second) / sp.rate)
	for s := 0; s < n; s++ {
		due := start.Add(time.Duration(s) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sp.lag = append(sp.lag, time.Since(due))
		jobs <- job{s: s, due: due}
	}
	close(jobs)
	wg.Wait()
	sp.sessions = append(sp.sessions, sessions...)
	return errors.Join(errs...)
}

// runSession is one worker's visit: read the campaign, then submit.
func runSession(c *client, path string, body []byte, due time.Time, tr *tracer) (session, error) {
	var ses session
	root := tr.startAt("session", nil, due)
	defer root.end()
	t := time.Now()
	raw, err := c.do(http.MethodGet, path, nil, http.StatusOK)
	got := time.Now()
	ses.read = got.Sub(due)
	tr.record("wire.get", root, t, got)
	if err != nil {
		return ses, err
	}
	var info wire.CampaignInfo
	if err := decode(raw, "campaign snapshot", &info); err != nil {
		return ses, err
	}
	if info.State != platform.StateOpen.String() {
		c.failed.Add(1)
		return ses, fmt.Errorf("session read campaign %s as %q, want open", info.ID, info.State)
	}
	raw, err = c.do(http.MethodPost, path+"/submissions", body, http.StatusAccepted)
	done := time.Now()
	ses.postRTT = done.Sub(got)
	ses.submit = done.Sub(due)
	tr.record("wire.submit", root, got, done)
	if err != nil {
		return ses, err
	}
	var sr wire.SubmitResult
	if err := decode(raw, "submit result", &sr); err != nil {
		return ses, err
	}
	if sr.Accepted != 1 {
		c.failed.Add(1)
		return ses, fmt.Errorf("session submission accepted %d, want 1", sr.Accepted)
	}
	return ses, nil
}

// verify checks that every campaign holds exactly the sessions sent to
// it, and that the server's store logged one event per campaign and per
// session.
func (sp *sessionPart) verify(srv *server) error {
	for i, path := range sp.campaigns {
		raw, err := sp.c.do(http.MethodGet, path, nil, http.StatusOK)
		if err != nil {
			return err
		}
		var info wire.CampaignInfo
		if err := decode(raw, "campaign snapshot", &info); err != nil {
			return err
		}
		if info.Submissions != sp.want[i] || info.State != platform.StateOpen.String() || !info.Persisted {
			return fmt.Errorf("campaign %s holds %d submissions (state %s, persisted %v), want %d open and persisted",
				info.ID, info.Submissions, info.State, info.Persisted, sp.want[i])
		}
	}
	return srv.checkAppended(len(sp.campaigns) + len(sp.sessions))
}
