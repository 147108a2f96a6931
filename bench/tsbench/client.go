package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/bench/benchtrace"
)

// maxConns is the most connections tsbench ever holds to the server, so
// at most two requests are in flight: the benchmark targets a two-core box.
const maxConns = 2

// result is the outcome of one request.
type result struct {
	kind opKind
	id   string
	// due is when the request was scheduled (open loop) or sent; latency
	// runs from due, service from the actual send, both to the last body
	// byte read.
	due, sent, done time.Time
	// err is a transport error or a failed response check; nil means ok.
	err error

	untraced bool
	bytes    int
	// buffered is an ingest answer's count of observations awaiting the
	// next rebuild; seeds is a seeds answer's seed set.
	buffered int
	seeds    []int
	// absErr and histErr sum |estimate − truth| and |historical mean −
	// truth| over the scored roads of an estimate.
	absErr, histErr float64
	scored          int
}

func (r *result) ok() bool               { return r.err == nil }
func (r *result) latency() time.Duration { return r.done.Sub(r.due) }
func (r *result) service() time.Duration { return r.done.Sub(r.sent) }
func (r *result) lag() time.Duration     { return r.sent.Sub(r.due) }

// client sends ops to one server and checks every response.
type client struct {
	base string
	http *http.Client
	fx   *fixture
}

func newClient(base string, fx *fixture) *client {
	return &client{
		base: base,
		fx:   fx,
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends o and checks the answer. due is the scheduled send time.
func (c *client) do(ctx context.Context, o op, id string, due time.Time, untraced bool) result {
	res := result{kind: o.kind, id: id, due: due, untraced: untraced}
	method := http.MethodGet
	var body io.Reader
	if o.body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+o.path, body)
	if err != nil {
		res.err = err
		res.sent, res.done = time.Now(), time.Now()
		return res
	}
	req.Header.Set("X-Request-Id", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if untraced {
		req.Header.Set(benchtrace.UntracedHeader, "off")
	}
	res.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		res.done = time.Now()
		res.err = err
		return res
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	res.bytes = len(raw)
	switch {
	case err != nil:
		res.err = fmt.Errorf("reading body: %w", err)
	case o.kind == opIngest && resp.StatusCode != http.StatusAccepted,
		o.kind != opIngest && resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	default:
		res.err = c.check(o, raw, &res)
	}
	return res
}

// check validates a response body and, for an estimate, scores it.
func (c *client) check(o op, raw []byte, res *result) error {
	switch o.kind {
	case opEstimate:
		return c.checkEstimate(o, raw, res)
	case opIngest:
		var b struct {
			Accepted     int    `json:"accepted"`
			Buffered     int    `json:"buffered"`
			ModelVersion uint64 `json:"model_version"`
		}
		if err := json.Unmarshal(raw, &b); err != nil {
			return fmt.Errorf("decoding ingest answer: %w", err)
		}
		if b.Accepted != o.n || b.ModelVersion < 1 || b.Buffered < 0 {
			return fmt.Errorf("ingest answer accepted=%d buffered=%d model_version=%d for a batch of %d",
				b.Accepted, b.Buffered, b.ModelVersion, o.n)
		}
		res.buffered = b.Buffered
		return nil
	default:
		var err error
		res.seeds, err = checkSeeds(raw, o.n, c.fx.Roads)
		return err
	}
}

// checkSeeds validates a /v1/seeds answer for budget k and returns the seeds.
func checkSeeds(raw []byte, k, roads int) ([]int, error) {
	var b struct {
		K            int     `json:"k"`
		Seeds        []int   `json:"seeds"`
		Benefit      float64 `json:"benefit"`
		ModelVersion uint64  `json:"model_version"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("decoding seeds answer: %w", err)
	}
	if b.K != k || len(b.Seeds) != k || b.ModelVersion < 1 || !(b.Benefit > 0) || math.IsInf(b.Benefit, 0) {
		return nil, fmt.Errorf("seeds answer k=%d with %d seeds, benefit %v, model_version %d for k=%d",
			b.K, len(b.Seeds), b.Benefit, b.ModelVersion, k)
	}
	seen := make(map[int]bool, k)
	for _, s := range b.Seeds {
		if s < 0 || s >= roads || seen[s] {
			return nil, fmt.Errorf("seeds answer has out-of-range or repeated road %d", s)
		}
		seen[s] = true
	}
	return b.Seeds, nil
}

type estimateAnswer struct {
	Slot  int `json:"slot"`
	Roads []struct {
		Road  int     `json:"road"`
		Speed float64 `json:"speed_mps"`
		PUp   float64 `json:"p_up"`
	} `json:"roads"`
	Seeded       int    `json:"seeded"`
	ModelVersion uint64 `json:"model_version"`
}

// checkEstimate requires one finite, positive speed and a probability for
// every road of the network, in road order, for the requested slot, and
// scores the answer against the frame's truth on the roads with history.
func (c *client) checkEstimate(o op, raw []byte, res *result) error {
	var b estimateAnswer
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("decoding estimate answer: %w", err)
	}
	f := &c.fx.Frames[o.frame]
	if b.Slot != f.Slot || b.Seeded != o.n || b.ModelVersion < 1 || len(b.Roads) != c.fx.Roads {
		return fmt.Errorf("estimate answer slot=%d seeded=%d model_version=%d roads=%d, want slot %d, %d seeded, %d roads",
			b.Slot, b.Seeded, b.ModelVersion, len(b.Roads), f.Slot, o.n, c.fx.Roads)
	}
	for i, r := range b.Roads {
		if r.Road != i || !(r.Speed > 0) || math.IsInf(r.Speed, 0) || !(r.PUp >= 0 && r.PUp <= 1) {
			return fmt.Errorf("estimate answer entry %d: road %d speed %v p_up %v", i, r.Road, r.Speed, r.PUp)
		}
		if f.Hist[i] > 0 {
			res.absErr += math.Abs(r.Speed - f.Truth[i])
			res.histErr += math.Abs(f.Hist[i] - f.Truth[i])
			res.scored++
		}
	}
	return nil
}
