package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/tracing"
)

// Client drives the campaign API from the worker (or operator) side.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets a platform at base (e.g. "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	return &Client{
		base: base,
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// Healthy reports whether the platform answers its health check.
func (c *Client) Healthy(ctx context.Context) bool {
	err := c.do(ctx, http.MethodGet, "/v2/healthz", nil, nil)
	return err == nil
}

// APIError is a non-2xx response from the platform. Code carries the
// machine-readable error class when the platform supplied one (see
// internal/imcerr); match classes with errors.Is against the imcerr
// sentinels.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's backoff hint from a Retry-After header
	// (zero when the response carried none). Both RFC 9110 forms are
	// honored: delta-seconds and HTTP-date (converted to the duration
	// remaining, clamped at zero). Backpressure rejections (503 with
	// code "unavailable") always carry one.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("wire: platform returned %d: %s", e.Status, e.Message)
}

// Is matches the imcerr bare-code sentinels, so callers can write
// errors.Is(err, imcerr.ErrNotFound) against wire responses too.
func (e *APIError) Is(target error) bool {
	t, ok := target.(*imcerr.Error)
	if !ok {
		return false
	}
	return t.Message == "" && string(t.Code) == e.Code
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("wire: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("wire: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Outbound context propagation: when the caller's ctx carries a
	// span, inject its W3C traceparent so the server joins the caller's
	// trace instead of starting a fresh one. Span-free contexts skip
	// this entirely.
	if tp := tracing.SpanFromContext(ctx).TraceParent(); tp != "" {
		req.Header.Set(tracing.TraceParentHeader, tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("wire: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var eb errorBody
		msg := resp.Status
		if err := json.NewDecoder(resp.Body).Decode(&eb); err == nil && eb.Error != "" {
			msg = eb.Error
		}
		apiErr := &APIError{Status: resp.StatusCode, Code: eb.Code, Message: msg}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			apiErr.RetryAfter = parseRetryAfter(ra, time.Now()) //lint:allow obsnaming reference time for an HTTP-date Retry-After, not a phase timing
		}
		return apiErr
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("wire: decoding response: %w", err)
		}
	}
	return nil
}

// parseRetryAfter interprets a Retry-After header value, which RFC 9110
// §10.2.3 allows in two forms: a non-negative decimal second count, or
// an HTTP-date after which the client may retry. A date is converted to
// the duration remaining from now, clamped at zero (a date already in
// the past means "retry immediately", not "never"). Unparseable or
// negative values yield zero, leaving the caller's default backoff in
// charge.
func parseRetryAfter(ra string, now time.Time) time.Duration {
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(ra)
	if err != nil {
		return 0
	}
	if d := t.Sub(now); d > 0 {
		return d
	}
	return 0
}
