// Package resilience is the failure-handling layer the analysis server wraps
// around every compute and artifact-I/O task: seeded deterministic retry with
// capped exponential backoff and jitter, per-request deadline awareness, and
// a circuit breaker that sheds a persistently failing dependency instead of
// hammering it.
//
// Determinism: the backoff schedule — including jitter — is a pure function
// of (seed, site, attempt) drawn from hashx.Uniform, which the fault
// injector also uses for its firing decisions, so a retried chaos run
// replays the same wait pattern under the same seed. Nothing in the retry
// path reads the wall clock; deadlines are observed only through the
// context.
//
// The breaker is the one component that does consult time (its cooldown is a
// wall-clock interval); the clock is injectable so tests stay deterministic.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ispy/internal/hashx"
)

// Policy configures Retry. The zero value retries nothing (one attempt, no
// backoff), so callers can thread an optional policy without guarding sites.
type Policy struct {
	// MaxAttempts bounds the total attempts, first try included (≤ 1 means
	// exactly one attempt — no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms when
	// retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 1s).
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry (default 2).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in [0,1).
	// The randomization is deterministic per (Seed, site, attempt).
	Jitter float64
	// Seed feeds the deterministic jitter.
	Seed uint64
}

// withDefaults fills the zero fields of an enabled policy.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0
	}
	return p
}

// Backoff returns the deterministic delay before retry attempt (1-based: the
// wait after the attempt-th failure) at site. It is exported so tests and
// telemetry can predict the schedule Retry follows.
func (p Policy) Backoff(site string, attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		// Deterministic jitter in [1-Jitter, 1): same (seed, site, attempt)
		// → same wait, so chaos runs replay exactly.
		u := hashx.Uniform(p.Seed, site, uint64(attempt))
		d *= 1 - p.Jitter*u
	}
	return time.Duration(d)
}

// permanentError marks an error Retry must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Retry returns it immediately instead of retrying
// (bad requests, validation failures — retrying cannot help).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// ExhaustedError is Retry's failure: every allowed attempt failed (or the
// deadline cut the schedule short). Unwrap exposes the last attempt's error.
type ExhaustedError struct {
	Site     string
	Attempts int
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("resilience: %s failed after %d attempt(s): %v", e.Site, e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// Retry runs op until it succeeds, fails permanently, exhausts the policy's
// attempts, or the context ends. Between attempts it sleeps the deterministic
// Backoff schedule, abandoning the wait (and returning) the moment ctx is
// done — the caller's deadline always wins over the schedule. onRetry, when
// non-nil, observes each scheduled retry (attempt number, upcoming delay)
// for telemetry.
func Retry(ctx context.Context, p Policy, site string, op func(context.Context) error, onRetry func(attempt int, delay time.Duration)) error {
	p = p.withDefaults()
	var last error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if last == nil {
				last = context.Cause(ctx)
			}
			return &ExhaustedError{Site: site, Attempts: attempt - 1, Last: last}
		}
		last = op(ctx)
		if last == nil {
			return nil
		}
		if IsPermanent(last) {
			return last
		}
		if attempt >= p.MaxAttempts {
			if p.MaxAttempts == 1 {
				return last // no retry policy in effect: pass the error through
			}
			return &ExhaustedError{Site: site, Attempts: attempt, Last: last}
		}
		delay := p.Backoff(site, attempt)
		if onRetry != nil {
			onRetry(attempt, delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return &ExhaustedError{Site: site, Attempts: attempt, Last: last}
		}
	}
}

// BreakerState enumerates the circuit breaker's states.
type BreakerState int

const (
	// BreakerClosed: traffic flows, failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is shed until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe is in flight; its outcome decides.
	BreakerHalfOpen
)

// String names the state for status endpoints and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// ErrCircuitOpen is returned (or used as a degradation cause) when the
// breaker is shedding traffic.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Breaker is a consecutive-failure circuit breaker: Threshold straight
// failures open it, a cooldown later one probe is admitted (half-open), and
// the probe's outcome either closes it or re-opens it for another cooldown.
// A nil *Breaker always allows and never trips, so callers can thread an
// optional breaker without guarding sites. All methods are safe for
// concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	trips    uint64
}

// NewBreaker returns a closed breaker that opens after threshold consecutive
// failures and admits a probe after cooldown. threshold ≤ 0 defaults to 5;
// cooldown ≤ 0 defaults to 1s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock replaces the breaker's clock (tests). Must be called before the
// breaker is used concurrently.
func (b *Breaker) SetClock(now func() time.Time) {
	if b != nil && now != nil {
		b.now = now
	}
}

// Allow reports whether a call may proceed. While open it returns false
// until the cooldown elapses, then admits exactly one probe (half-open);
// further calls are shed until Record decides the probe's fate.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		return false // a probe is already in flight
	default: // open
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		return true
	}
}

// Record feeds one call outcome. While closed, failures accumulate and the
// threshold-th consecutive one opens the breaker; a success resets the
// streak. In half-open, the probe's outcome closes (success) or re-opens
// (failure) the breaker.
func (b *Breaker) Record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		if ok {
			b.state = BreakerClosed
			b.failures = 0
		} else {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
	case BreakerClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.trips++
		}
	default: // open: outcomes of calls admitted before the trip are moot
	}
}

// State returns the current state (Closed for a nil breaker).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		// Cooldown elapsed but no probe has arrived yet; report half-open so
		// status endpoints reflect that traffic would be admitted.
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
