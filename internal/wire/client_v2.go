package wire

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/platform"
)

// CreateCampaign registers a new campaign and returns its snapshot.
func (c *Client) CreateCampaign(ctx context.Context, req CreateCampaignRequest) (*CampaignInfo, error) {
	var out CampaignInfo
	if err := c.do(ctx, "POST", "/v2/campaigns", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Campaigns fetches one page of the campaign listing. limit <= 0 asks
// for the server default.
func (c *Client) Campaigns(ctx context.Context, offset, limit int) (*CampaignPage, error) {
	q := url.Values{}
	if offset > 0 {
		q.Set("offset", fmt.Sprint(offset))
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	path := "/v2/campaigns"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out CampaignPage
	if err := c.do(ctx, "GET", path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Campaign fetches one campaign's lifecycle snapshot.
func (c *Client) Campaign(ctx context.Context, id string) (*CampaignInfo, error) {
	var out CampaignInfo
	if err := c.do(ctx, "GET", "/v2/campaigns/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// OpenCampaign publicizes a draft campaign.
func (c *Client) OpenCampaign(ctx context.Context, id string) (*CampaignInfo, error) {
	var out CampaignInfo
	if err := c.do(ctx, "POST", "/v2/campaigns/"+url.PathEscape(id)+"/open", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelCampaign abandons a draft or open campaign.
func (c *Client) CancelCampaign(ctx context.Context, id string) (*CampaignInfo, error) {
	var out CampaignInfo
	if err := c.do(ctx, "POST", "/v2/campaigns/"+url.PathEscape(id)+"/cancel", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitTo posts one sealed submission to a campaign.
func (c *Client) SubmitTo(ctx context.Context, id string, sub Submission) error {
	return c.do(ctx, "POST", "/v2/campaigns/"+url.PathEscape(id)+"/submissions", sub, nil)
}

// SubmitBatch posts many sealed submissions in one envelope and returns
// how many the platform accepted.
func (c *Client) SubmitBatch(ctx context.Context, id string, subs []Submission) (int, error) {
	var out SubmitResult
	body := struct {
		Submissions []Submission `json:"submissions"`
	}{Submissions: subs}
	if err := c.do(ctx, "POST", "/v2/campaigns/"+url.PathEscape(id)+"/submissions", body, &out); err != nil {
		return 0, err
	}
	return out.Accepted, nil
}

// CloseCampaign asks the platform to settle the campaign asynchronously;
// the returned snapshot normally reads "closing". Poll Campaign (or use
// AwaitSettled) to observe the outcome.
//
// A backpressure rejection (503 with code "unavailable" — the settle
// admission queue is at its depth bound) is retried automatically,
// honoring the server's Retry-After hint, until ctx expires; every
// other failure returns immediately.
func (c *Client) CloseCampaign(ctx context.Context, id string) (*CampaignInfo, error) {
	for {
		var out CampaignInfo
		err := c.do(ctx, "POST", "/v2/campaigns/"+url.PathEscape(id)+"/close", nil, &out)
		if err == nil {
			return &out, nil
		}
		backoff, retryable := retryAfter(err)
		if !retryable {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, imcerr.Wrapf(imcerr.CodeUnavailable, err, "closing %s: gave up retrying", id)
		case <-time.After(backoff):
		}
	}
}

// retryAfter classifies an error as a retryable backpressure rejection
// and extracts the server's backoff hint (defaulting to one second when
// the hint is absent or zero).
func retryAfter(err error) (backoff time.Duration, retryable bool) {
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != string(imcerr.CodeUnavailable) {
		return 0, false
	}
	if apiErr.RetryAfter > 0 {
		return apiErr.RetryAfter, true
	}
	return time.Second, true
}

// AwaitSettled polls a closing campaign until it settles (snapshot
// returned), the settle fails (error carrying the server's code), or ctx
// expires. poll <= 0 defaults to 50ms.
func (c *Client) AwaitSettled(ctx context.Context, id string, poll time.Duration) (*CampaignInfo, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		info, err := c.Campaign(ctx, id)
		if err != nil {
			return nil, err
		}
		switch {
		case info.State == platform.StateSettled.String():
			return info, nil
		case info.State == platform.StateClosing.String():
			// Still settling; a settle_error here would be stale.
		case info.SettleError != "":
			return info, imcerr.New(imcerr.Code(info.SettleErrorCode), "%s", info.SettleError)
		case info.State == platform.StateCancelled.String():
			return info, imcerr.New(imcerr.CodeConflict, "campaign %s was cancelled", id)
		}
		select {
		case <-ctx.Done():
			return nil, imcerr.Wrapf(imcerr.CodeCancelled, ctx.Err(), "awaiting settle of %s", id)
		case <-time.After(poll):
		}
	}
}

// CampaignReport fetches the settled report of one campaign.
func (c *Client) CampaignReport(ctx context.Context, id string) (*Report, error) {
	var out Report
	if err := c.do(ctx, "GET", "/v2/campaigns/"+url.PathEscape(id)+"/report", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the unified platform snapshot (GET /v2/stats): the
// scheduler, store, and registry sections in one poll.
func (c *Client) Stats(ctx context.Context) (*PlatformStats, error) {
	var out PlatformStats
	if err := c.do(ctx, "GET", "/v2/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CampaignEstimate fetches the provisional truth estimate of one
// campaign, computed by the server on request. An estimate with
// Staleness 0 previews the final report's truth exactly. Under settle
// backpressure the read fails with a 503 *APIError carrying the
// server's RetryAfter hint; unlike CloseCampaign it does not retry.
func (c *Client) CampaignEstimate(ctx context.Context, id string) (*EstimateInfo, error) {
	var out EstimateInfo
	if err := c.do(ctx, "GET", "/v2/campaigns/"+url.PathEscape(id)+"/estimate", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CampaignAudit fetches the copier audit of one settled campaign.
func (c *Client) CampaignAudit(ctx context.Context, id string) (*AuditReport, error) {
	var out AuditReport
	if err := c.do(ctx, "GET", "/v2/campaigns/"+url.PathEscape(id)+"/audit", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
