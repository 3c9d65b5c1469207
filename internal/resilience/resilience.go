// Package resilience is the fault-tolerance layer of the reproduction: the
// paper's community is explicitly *dynamic* — "agents appear, die, and
// re-advertise" (Sections 3-4) — and brokers compensate with redundant
// advertisements and liveness pings. This package supplies the client-side
// half of that story as a composable call policy:
//
//   - exponential backoff with full jitter between retry attempts,
//   - a token-bucket retry budget so a wide outage cannot amplify load
//     (retries spend tokens, successes slowly refill them),
//   - per-peer circuit breakers with half-open probing, so a dead broker or
//     resource agent is skipped instead of timing out every caller, and
//   - deadline-aware attempt slicing: a context deadline is divided across
//     the remaining attempts, so one hung peer cannot consume the entire
//     call budget before the first retry fires.
//
// A Policy wraps any transport-shaped call function (see WrapCall); agents
// install one through agent.WithCallPolicy. A nil *Policy is valid
// everywhere and means "call once, no bookkeeping" — the paper-faithful
// configuration the Section 5 experiment harness pins.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"infosleuth/internal/kqml"
	"infosleuth/internal/stats"
	"infosleuth/internal/telemetry"
)

// ErrBreakerOpen reports that the peer's circuit breaker is open and the
// call was rejected without touching the transport.
var ErrBreakerOpen = errors.New("resilience: circuit open")

// ErrBudgetExhausted reports that the retry budget is spent: the first
// attempt's error is returned wrapped, and no retry was issued.
var ErrBudgetExhausted = errors.New("resilience: retry budget exhausted")

// Options configures a Policy.
type Options struct {
	// MaxAttempts is the total number of attempts per call (first try
	// included). Values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay is the backoff base; attempt n waits a full-jittered
	// random duration in [0, min(MaxDelay, BaseDelay*2^(n-1))).
	// Zero means 25 ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; zero means 2 s.
	MaxDelay time.Duration
	// RetryBudget caps the token bucket that retries spend from; each
	// retry costs one token and each successful call refills
	// BudgetRefill tokens (capped at RetryBudget). Zero means 64;
	// negative disables the budget (unlimited retries).
	RetryBudget int
	// BudgetRefill is the fraction of a token a success earns back;
	// zero means 0.1 (ten successes buy one retry).
	BudgetRefill float64
	// BreakerThreshold is the number of consecutive failures that opens a
	// peer's circuit. Zero disables circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// letting a single half-open probe through; zero means 5 s.
	BreakerCooldown time.Duration
	// Retryable classifies errors; nil uses DefaultRetryable.
	Retryable func(error) bool
	// Seed seeds the jitter source (deterministic tests); zero derives a
	// seed from the wall clock.
	Seed int64
	// now and sleep are injectable for tests.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
}

// Policy is a stateful resilience policy shared by every call an agent
// makes: one retry budget and one breaker per peer address. All methods are
// safe for concurrent use, and all methods accept a nil receiver (meaning
// "no policy": a single attempt, no breakers).
type Policy struct {
	opt Options

	mu      sync.Mutex
	rng     *stats.Source
	tokens  float64
	breaker map[string]*Breaker
}

// New builds a Policy from options, applying defaults.
func New(opt Options) *Policy {
	if opt.MaxAttempts < 1 {
		opt.MaxAttempts = 1
	}
	if opt.BaseDelay == 0 {
		opt.BaseDelay = 25 * time.Millisecond
	}
	if opt.MaxDelay == 0 {
		opt.MaxDelay = 2 * time.Second
	}
	if opt.RetryBudget == 0 {
		opt.RetryBudget = 64
	}
	if opt.BudgetRefill == 0 {
		opt.BudgetRefill = 0.1
	}
	if opt.BreakerCooldown == 0 {
		opt.BreakerCooldown = 5 * time.Second
	}
	if opt.Retryable == nil {
		opt.Retryable = DefaultRetryable
	}
	if opt.Seed == 0 {
		opt.Seed = time.Now().UnixNano()
	}
	if opt.now == nil {
		opt.now = time.Now
	}
	if opt.sleep == nil {
		opt.sleep = sleepCtx
	}
	return &Policy{
		opt:     opt,
		rng:     stats.NewSource(opt.Seed),
		tokens:  float64(opt.RetryBudget),
		breaker: make(map[string]*Breaker),
	}
}

// Disabled returns a policy that attempts each call exactly once with no
// breakers — behaviorally identical to a nil policy, but exercising the
// policy plumbing (benchmark guardrails install it to price the wrapper).
func Disabled() *Policy {
	return New(Options{MaxAttempts: 1, RetryBudget: -1})
}

// DefaultRetryable treats every error as retryable except explicit
// cancellation: a cancelled attempt means the caller gave up, while a
// deadline blown by one hung peer still leaves the sliced retry its share
// of the budget (Do additionally stops whenever the parent context itself
// is done).
func DefaultRetryable(err error) bool {
	return !errors.Is(err, context.Canceled)
}

// sleepCtx sleeps for d or until the context is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Breaker returns the peer's circuit breaker, creating it on first use;
// nil when the policy is nil or breaking is disabled.
func (p *Policy) Breaker(peer string) *Breaker {
	if p == nil || p.opt.BreakerThreshold <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.breaker[peer]
	if !ok {
		b = newBreaker(p.opt.BreakerThreshold, p.opt.BreakerCooldown, p.opt.now)
		p.breaker[peer] = b
	}
	return b
}

// BreakerOpen reports whether the peer's circuit is open right now (and not
// yet due for a half-open probe) — the check broker forwarding uses to skip
// a peer without consuming the probe slot.
func (p *Policy) BreakerOpen(peer string) bool {
	if b := p.Breaker(peer); b != nil {
		return b.Snapshot() == StateOpen && !b.probeDue()
	}
	return false
}

// BreakerState is one peer's circuit state in a policy snapshot (see
// BreakerStates); the fleet monitor-snapshot conversation carries these.
type BreakerState struct {
	Peer  string `json:"peer"`
	State string `json:"state"`
}

// BreakerStates returns every known peer's circuit state, sorted by peer;
// nil when the policy is nil or circuit breaking is disabled.
func (p *Policy) BreakerStates() []BreakerState {
	if p == nil || p.opt.BreakerThreshold <= 0 {
		return nil
	}
	p.mu.Lock()
	peers := make([]string, 0, len(p.breaker))
	for peer := range p.breaker {
		peers = append(peers, peer)
	}
	breakers := make([]*Breaker, 0, len(peers))
	sort.Strings(peers)
	for _, peer := range peers {
		breakers = append(breakers, p.breaker[peer])
	}
	p.mu.Unlock()
	out := make([]BreakerState, len(peers))
	for i, peer := range peers {
		out[i] = BreakerState{Peer: peer, State: breakers[i].Snapshot().String()}
	}
	return out
}

// BudgetRemaining returns the retry tokens left (whole tokens); -1 when the
// budget is unlimited or the policy is nil.
func (p *Policy) BudgetRemaining() int {
	if p == nil || p.opt.RetryBudget < 0 {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return int(p.tokens)
}

// spendRetry takes one retry token; false when the bucket is empty.
func (p *Policy) spendRetry() bool {
	if p.opt.RetryBudget < 0 {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tokens < 1 {
		return false
	}
	p.tokens--
	return true
}

// refund credits a success back into the retry budget.
func (p *Policy) refund() {
	if p.opt.RetryBudget < 0 {
		return
	}
	p.mu.Lock()
	if p.tokens += p.opt.BudgetRefill; p.tokens > float64(p.opt.RetryBudget) {
		p.tokens = float64(p.opt.RetryBudget)
	}
	p.mu.Unlock()
}

// backoff returns the full-jittered delay before the given retry (retry 1
// is the wait between the first and second attempts).
func (p *Policy) backoff(retry int) time.Duration {
	ceil := p.opt.BaseDelay << uint(retry-1)
	if ceil > p.opt.MaxDelay || ceil <= 0 {
		ceil = p.opt.MaxDelay
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Float64() * float64(ceil))
}

// Do runs op against the named peer under the policy: breaker admission,
// up to MaxAttempts attempts with full-jitter backoff, budget-gated
// retries, and — when the context has a deadline — per-attempt deadline
// slices so early attempts cannot starve later ones. A nil policy runs op
// exactly once.
//
// On a traced context (telemetry.WithTraceID) every retry records a
// retry.attempt span, so the flight recorder shows where a conversation's
// latency went.
func (p *Policy) Do(ctx context.Context, peer string, op func(ctx context.Context) error) error {
	if p == nil {
		return op(ctx)
	}
	br := p.Breaker(peer)
	if br != nil && !br.Allow() {
		mBreakerRejects.Inc()
		return fmt.Errorf("%w: %s", ErrBreakerOpen, peer)
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = p.attempt(ctx, attempt, op)
		if err == nil {
			if br != nil {
				br.OnSuccess()
			}
			p.refund()
			return nil
		}
		if br != nil {
			br.OnFailure()
		}
		if attempt >= p.opt.MaxAttempts || ctx.Err() != nil || !p.opt.Retryable(err) {
			return err
		}
		if !p.spendRetry() {
			return fmt.Errorf("%w (peer %s): %w", ErrBudgetExhausted, peer, err)
		}
		if serr := p.opt.sleep(ctx, p.backoff(attempt)); serr != nil {
			return err
		}
		// Re-admit through the breaker: the failed attempt may have
		// opened it, in which case further retries here are pointless.
		if br != nil && !br.Allow() {
			mBreakerRejects.Inc()
			return fmt.Errorf("%w: %s (after %d attempts: %v)", ErrBreakerOpen, peer, attempt, err)
		}
		mRetries.Inc()
		recordRetrySpan(ctx, peer, attempt+1)
	}
}

// attempt runs op once inside its deadline slice: with a context deadline
// and n attempts remaining, this attempt gets remaining/n of it, so a hung
// peer leaves the retries their share.
func (p *Policy) attempt(ctx context.Context, attempt int, op func(ctx context.Context) error) error {
	left := p.opt.MaxAttempts - attempt + 1
	deadline, ok := ctx.Deadline()
	if !ok || left <= 1 {
		return op(ctx)
	}
	slice := deadline.Sub(p.opt.now()) / time.Duration(left)
	if slice <= 0 {
		return op(ctx)
	}
	actx, cancel := context.WithTimeout(ctx, slice)
	defer cancel()
	return op(actx)
}

// recordRetrySpan emits the retry.attempt span for traced conversations.
func recordRetrySpan(ctx context.Context, peer string, attempt int) {
	traceID := telemetry.TraceIDFrom(ctx)
	if traceID == "" || !telemetry.SpanRecorderActive() {
		return
	}
	telemetry.RecordSpan(traceID, kqml.TraceSpan{
		Agent: peer,
		Op:    telemetry.OpRetryAttempt,
		Start: time.Now().UnixNano(),
		Err:   fmt.Sprintf("attempt %d", attempt),
	})
}

// CallFunc is the transport-call shape policies wrap: deliver one message,
// get one reply.
type CallFunc func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error)

// WrapCall applies the policy around a call function, keyed by peer
// address. A sorry/error reply is a *successful* call at this layer — the
// peer is alive and answered — so only transport-level failures trip
// breakers and trigger retries. A nil policy returns next unchanged.
func (p *Policy) WrapCall(next CallFunc) CallFunc {
	if p == nil {
		return next
	}
	return func(ctx context.Context, addr string, msg *kqml.Message) (*kqml.Message, error) {
		var reply *kqml.Message
		err := p.Do(ctx, addr, func(ctx context.Context) error {
			r, err := next(ctx, addr, msg)
			if err != nil {
				return err
			}
			reply = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		return reply, nil
	}
}
