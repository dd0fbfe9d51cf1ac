package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"gzkp/internal/resilience"
	"gzkp/internal/telemetry"
)

// forwarder is the coordinator's HTTP edge: every byte that crosses the
// node boundary goes through it, so classification (which failures are
// the node's fault vs the request's), retry jitter, and the
// cluster_forward latency histogram all live in one place.
type forwarder struct {
	client  *http.Client
	policy  resilience.Policy
	timeout time.Duration // per-attempt bound for control calls (not proves)

	hForward  *telemetry.Histogram // cluster_forward_ns
	cForwards *telemetry.Counter   // cluster.forwarded
}

// maxNodeBody bounds node responses the coordinator will buffer. Key
// bundles dominate: a serialized proving key carries the per-wire query
// points, so the cap matches the service's key-import body limit.
const maxNodeBody = 64 << 20

// do runs one HTTP attempt and decodes a 2xx JSON body into out (when out
// is non-nil). Non-2xx statuses come back as a *resilience.HTTPError so
// callers classify uniformly; transport failures return their raw error
// for the same reason.
func (f *forwarder) do(ctx context.Context, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the distributed-trace context: the job loop attaches the
	// job's trace id (and its forward span) to ctx, and the node extracts
	// the headers into its own tracer.
	telemetry.SpanContextFromContext(ctx).Inject(req.Header)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxNodeBody))
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if he := resilience.NewHTTPError(method+" "+url, resp.StatusCode, resp.Header); he != nil {
		return resp.StatusCode, he
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("cluster: bad response from %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// control runs a short coordinator→node call (register, drain, probe,
// export) under the per-attempt timeout, retrying Transient outcomes with
// full-jitter backoff. DeviceLost/Fatal return immediately — the caller
// decides whether to strike the node or fail the operation.
func (f *forwarder) control(ctx context.Context, method, url string, body, out any) error {
	p := f.policy.WithDefaults()
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		actx, cancel := context.WithTimeout(ctx, f.timeout)
		var status int
		status, err = f.do(actx, method, url, body, out)
		cancel()
		if err == nil {
			return nil
		}
		if resilience.ClassifyHTTP(status, err) != resilience.Transient || attempt == p.MaxAttempts-1 {
			return err
		}
		delay := p.JitterBackoff(attempt, rand.Float64())
		if ra := retryAfterOf(err); ra > delay {
			delay = ra
		}
		if serr := p.Sleep(ctx, delay); serr != nil {
			return serr
		}
	}
	return err
}

// post forwards one unit of work (a job, a batch, a verify-batch)
// synchronously: a single long attempt bounded only by ctx, counted in
// cluster.forwarded and timed into the cluster_forward histogram. Retry
// and migration decisions belong to the caller's forward loop, not here:
// a prove can legitimately run for minutes, so blind re-attempts would
// double work.
func (f *forwarder) post(ctx context.Context, url string, req, out any) (int, error) {
	f.cForwards.Add(1)
	t0 := time.Now()
	status, err := f.do(ctx, http.MethodPost, url, req, out)
	f.hForward.Record(time.Since(t0).Nanoseconds())
	return status, err
}

// retryAfterOf extracts a server Retry-After hint from a classified error.
func retryAfterOf(err error) time.Duration {
	var he *resilience.HTTPError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}
