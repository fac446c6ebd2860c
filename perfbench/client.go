package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// maxConns caps the client's connections to the server.
const maxConns = 2

// client speaks the /v2 protocol with pre-encoded bodies over at most
// maxConns keep-alive connections per server, counting every operation it
// attempts and every one that fails or is refused.
type client struct {
	hc        *http.Client
	attempted atomic.Int64
	failed    atomic.Int64
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// close drops the client's idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request to url and returns the response body. A transport error
// or any status but want counts as a failed operation. Safe for
// concurrent use.
func (c *client) do(method, url string, body []byte, want int) ([]byte, error) {
	c.attempted.Add(1)
	raw, err := c.send(method, url, body, want)
	if err != nil {
		c.failed.Add(1)
	}
	return raw, err
}

func (c *client) send(method, url string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, want, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// decode unmarshals a response body, naming the operation on failure.
func decode(raw []byte, what string, out any) error {
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decoding %s: %w", what, err)
	}
	return nil
}
