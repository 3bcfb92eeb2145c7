package netstore

// The unified, context-first request surface of the BRB store.
//
// Every read and write entry point takes a context.Context and per-call
// options; deadlines propagate end to end. Client-side, every wait —
// batch responses, write acknowledgments, failover retries — selects on
// ctx.Done(), so a wedged-but-open connection can never hang a caller
// past its deadline. Wire-side, the remaining budget rides each
// BatchReq/Set/Del frame, and the server sheds work items whose budget
// ran out while they queued (per-key Expired bits) instead of wasting
// service time on answers nobody is waiting for — deadline-aware
// shedding in the spirit of receiver-driven transports.
//
// Cluster is the one implementation — sharded, epoch-routed,
// self-healing; a flat replicated tier is its one-shard topology. The
// interface exists for consumers that substitute a fake in tests
// (internal/loadgen's engine).

import (
	"context"
	"errors"
	"time"
)

// Store is the request API of the BRB data store: batched, task-aware
// reads and replicated writes, all context-first. Implemented by
// *Cluster.
//
// Deadlines: the effective deadline of a call is the earliest of the
// ctx deadline, the per-call options Timeout, and (when ctx carries no
// deadline) DefaultRequestTimeout — so even a context.Background()
// caller is bounded. On expiry the call returns promptly with an error
// wrapping context.DeadlineExceeded; Multiget additionally returns the
// partial TaskResult the in-deadline shards produced.
type Store interface {
	// Get reads one key (found=false for missing keys — not an error).
	Get(ctx context.Context, key string, opts ReadOptions) (value []byte, found bool, err error)
	// Multiget performs one batched read. On error the partial
	// TaskResult is still returned: keys whose shards answered have
	// Values/Found filled.
	Multiget(ctx context.Context, keys []string, opts ReadOptions) (*TaskResult, error)
	// Set writes one key to the replicas of its shard.
	Set(ctx context.Context, key string, value []byte, opts WriteOptions) error
	// Delete removes one key from the replicas of its shard.
	Delete(ctx context.Context, key string, opts WriteOptions) error
	// Close releases the store's resources.
	Close()
}

var _ Store = (*Cluster)(nil)

// ReadOptions are per-call read knobs. The zero value is the default
// behavior: no hedging, deadline from ctx or DefaultRequestTimeout.
// Replicas are always chosen load-awarely (see Cluster.Multiget).
type ReadOptions struct {
	// Timeout, when positive, bounds this call in addition to any ctx
	// deadline (the earlier one wins).
	Timeout time.Duration
	// Hedge configures tail-cutting hedged reads (see HedgePolicy). The
	// zero value disables hedging.
	Hedge HedgePolicy
	// PriorityBias shifts the task-aware wire priority of every key this
	// call issues (lower priorities serve sooner, so a positive bias
	// deprioritizes the call relative to unbiased traffic). Workload SLO
	// classes map onto biases — see internal/loadgen — spaced a second
	// apart, wider than any cost forecast, so task-awareness keeps
	// operating within each class and a higher class is served first
	// unless the lower one has queued for longer than the spacing (the
	// Priority discipline ranks by receipt time + priority).
	PriorityBias int64
}

// WriteOptions are per-call write knobs. A write always waits for
// every live replica of the key's shard and succeeds once at least one
// acked (see Cluster.Set).
type WriteOptions struct {
	// Timeout, when positive, bounds this call in addition to any ctx
	// deadline (the earlier one wins).
	Timeout time.Duration
}

// DefaultRequestTimeout bounds calls whose context carries no deadline
// and whose options set no Timeout. It exists so a context.Background()
// caller against a wedged-but-open connection blocks for seconds, not
// forever.
const DefaultRequestTimeout = 10 * time.Second

// requestContext applies the per-call and store-default timeouts:
// opts timeout (if set) always narrows; the default applies only when
// the caller brought no deadline at all.
func requestContext(ctx context.Context, timeout, def time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	if _, ok := ctx.Deadline(); !ok {
		return context.WithTimeout(ctx, def)
	}
	return ctx, func() {}
}

// budgetOf converts a context deadline into the wire's remaining-budget
// form (nanoseconds left at send; 0 = unbounded). The second result is
// false when the budget is already spent — the caller should not send
// at all.
func budgetOf(ctx context.Context) (int64, bool) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, true
	}
	b := time.Until(d)
	if b <= 0 {
		return 0, false
	}
	return b.Nanoseconds(), true
}

// countCtxErr counts a finished operation's deadline expiry or
// cancellation (call once per public-API operation).
func (c *Cluster) countCtxErr(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		c.expired.Add(1)
	case errors.Is(err, context.Canceled):
		c.cancelled.Add(1)
	}
}

// ctxErr wraps a context's termination so errors.Is sees the cause
// while the message says what was abandoned.
func ctxErr(ctx context.Context, what string) error {
	return &opCtxError{what: what, cause: context.Cause(ctx)}
}

type opCtxError struct {
	what  string
	cause error
}

func (e *opCtxError) Error() string { return "netstore: " + e.what + ": " + e.cause.Error() }
func (e *opCtxError) Unwrap() error { return e.cause }
