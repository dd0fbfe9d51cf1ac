// Package resilience classifies failures by the recovery action they admit
// and shapes bounded retries with capped, jittered exponential backoff.
//
// The failures it names are the ones this system meets: a request to a
// node fails transiently (overload, a slow or not-yet-ready endpoint) and
// succeeds on retry; a node becomes unreachable and its work must move to
// another (DeviceLost, read from the transport, see ClassifyHTTP); the
// caller cancels and everything must unwind promptly. Everything else —
// bad input, logic errors, worker panics — is fatal and aborts the request
// with a real error instead of a process crash.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Class buckets an error by the recovery action it admits.
type Class int

const (
	// Fatal aborts the pipeline: bad input, logic errors, worker panics.
	Fatal Class = iota
	// Transient failures (overload, a node not ready yet) are retried in
	// place with backoff.
	Transient
	// DeviceLost triggers failover: the endpoint is unreachable, so its
	// work moves to another node.
	DeviceLost
	// Canceled means the caller gave up (context cancellation or deadline).
	Canceled
)

func (c Class) String() string {
	switch c {
	case Fatal:
		return "fatal"
	case Transient:
		return "transient"
	case DeviceLost:
		return "device-lost"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// TransientError marks a retryable failure.
type TransientError struct {
	Op  string
	Err error
}

func (e *TransientError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("transient failure: %s", e.Op)
	}
	return fmt.Sprintf("transient failure: %s: %v", e.Op, e.Err)
}

func (e *TransientError) Unwrap() error { return e.Err }

// PanicError wraps a panic recovered from a worker goroutine, preserving
// the panic value and the stack where it fired. It classifies as Fatal.
type PanicError struct {
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic: %v", e.Value)
}

// Classify maps a non-nil error to its recovery class by unwrapping. A
// wrapped context cancellation classifies as Canceled even when wrapped by
// a typed error.
func Classify(err error) Class {
	if err == nil {
		return Fatal // callers must not classify nil; treat as a logic error
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Canceled
	}
	var te *TransientError
	if errors.As(err, &te) {
		return Transient
	}
	var he *HTTPError
	if errors.As(err, &he) {
		return classifyHTTPStatus(he.Status)
	}
	if c, ok := classifyTransport(err); ok {
		return c
	}
	return Fatal
}

// Policy bounds transient-failure retries with capped exponential backoff.
// The zero value selects the defaults, so it can live directly on a config
// struct.
type Policy struct {
	// MaxAttempts is the total number of attempts per operation
	// (default 4: one try plus three retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 50ms).
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry (default 2).
	Multiplier float64
	// Sleep overrides the backoff wait — tests inject a recorder. The
	// default waits on a timer or the context, whichever fires first.
	Sleep func(ctx context.Context, d time.Duration) error
}

// WithDefaults returns the policy with unset fields filled in, for callers
// that drive their own retry loop with Backoff/Sleep.
func (p Policy) WithDefaults() Policy { return p.withDefaults() }

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 50 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// JitterBackoff returns a full-jitter retry delay: u (uniform in [0, 1))
// scaled onto [0, Backoff(retry)]. Full jitter decorrelates a herd of
// retriers that all failed at the same instant — with deterministic
// backoff they would re-collide on every retry; with full jitter the load
// spreads across the whole window. Callers pass their own uniform source
// so tests stay deterministic.
func (p Policy) JitterBackoff(retry int, u float64) time.Duration {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return time.Duration(u * float64(p.Backoff(retry)))
}

// Backoff returns the capped delay before retry number retry (0-based).
func (p Policy) Backoff(retry int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}
