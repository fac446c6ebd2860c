package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"runtime/metrics"
	"time"

	"imc2/internal/platform"
	"imc2/internal/wire"
)

// pollInterval is how often a close polls the campaign snapshot. It is
// short and fixed (wire.Client.AwaitSettled's default of 50ms would round
// a dense close by several percent); the polls are counted as wire.poll_n.
const pollInterval = 5 * time.Millisecond

// cycle is one measured campaign lifecycle.
type cycle struct {
	batch    time.Duration // SubmitBatch round trip
	close    time.Duration // POST close → report in hand
	closeRTT time.Duration // the POST close request alone
	report   time.Duration // the GET report request alone
	alloc    uint64        // process-wide bytes allocated during the close
	polls    int
	body     []byte // the report as served
	trace    *closeTrace
}

// allocated reads the process's cumulative heap allocation without
// stopping the world.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runCycle drives one lifecycle through c: create → SubmitBatch → close
// → poll until settled → GET report. With tr non-nil every request gets
// a span under one "cycle" span; with p non-nil the close's layer
// timeline is collected from the server's seams.
func runCycle(c *client, base string, sh *shape, tr *tracer, p *probe) (cycle, error) {
	var cy cycle
	root := tr.start("cycle", nil)
	defer root.end()

	t := time.Now()
	raw, err := c.do(http.MethodPost, base+"/v2/campaigns", sh.create, http.StatusCreated)
	tr.record("wire.create", root, t, time.Now())
	if err != nil {
		return cy, err
	}
	var info wire.CampaignInfo
	if err := decode(raw, "created campaign", &info); err != nil {
		return cy, err
	}
	path := base + "/v2/campaigns/" + url.PathEscape(info.ID)

	t = time.Now()
	raw, err = c.do(http.MethodPost, path+"/submissions", sh.batch, http.StatusAccepted)
	cy.batch = time.Since(t)
	tr.record("wire.batch", root, t, t.Add(cy.batch))
	if err != nil {
		return cy, err
	}
	var sr wire.SubmitResult
	if err := decode(raw, "batch result", &sr); err != nil {
		return cy, err
	}
	if sr.Accepted != len(sh.subs) {
		c.failed.Add(1)
		return cy, fmt.Errorf("batch accepted %d of %d submissions", sr.Accepted, len(sh.subs))
	}

	p.beginClose()
	closeSpan := tr.start("close", root)
	alloc0 := allocated()
	t0 := time.Now()
	_, err = c.do(http.MethodPost, path+"/close", nil, http.StatusAccepted)
	cy.closeRTT = time.Since(t0)
	tr.record("wire.close", closeSpan, t0, t0.Add(cy.closeRTT))
	if err != nil {
		p.endClose()
		return cy, err
	}
	for {
		time.Sleep(pollInterval)
		cy.polls++
		t = time.Now()
		raw, err = c.do(http.MethodGet, path, nil, http.StatusOK)
		tr.record("wire.poll", closeSpan, t, time.Now())
		if err != nil {
			p.endClose()
			return cy, err
		}
		if err := decode(raw, "campaign snapshot", &info); err != nil {
			p.endClose()
			return cy, err
		}
		if info.State == platform.StateSettled.String() {
			break
		}
		if info.State != platform.StateClosing.String() {
			c.failed.Add(1)
			p.endClose()
			return cy, fmt.Errorf("campaign %s left closing as %q: %s (%s)", info.ID, info.State, info.SettleError, info.SettleErrorCode)
		}
	}
	t = time.Now()
	cy.body, err = c.do(http.MethodGet, path+"/report", nil, http.StatusOK)
	end := time.Now()
	cy.report = end.Sub(t)
	cy.close = end.Sub(t0)
	cy.alloc = allocated() - alloc0
	tr.record("wire.report", closeSpan, t, end)
	closeSpan.endAt(end)
	cy.trace = p.endClose()
	if cy.trace != nil {
		cy.trace.start, cy.trace.end, cy.trace.reportStart = t0, end, t
		cy.trace.emit(tr, closeSpan)
	}
	return cy, err
}

// freshCycle runs one lifecycle on a fresh server from open after
// collecting the heap, so every close starts from the same state. The
// server's store must have logged the cycle's four events.
func freshCycle(c *client, open func() (*server, error), sh *shape, tr *tracer, p *probe) (cycle, error) {
	srv, err := open()
	if err != nil {
		return cycle{}, err
	}
	runtime.GC()
	cy, err := runCycle(c, srv.base, sh, tr, p)
	if err == nil {
		err = srv.checkAppended(4)
	}
	if cerr := srv.close(); cerr != nil && err == nil {
		err = cerr
	}
	c.close()
	return cy, err
}

// sameReports checks that every report is byte-identical to the first:
// within a run, each report of the same inputs is the same, traced or not.
func sameReports(cycles []cycle) error {
	for i, cy := range cycles {
		if !bytes.Equal(cy.body, cycles[0].body) {
			return fmt.Errorf("cycle %d report differs from the run's first report (%d vs %d bytes)",
				i+1, len(cy.body), len(cycles[0].body))
		}
	}
	return nil
}
