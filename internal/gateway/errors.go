package gateway

import (
	"fmt"
	"time"

	"repro/internal/errtype"
	"repro/internal/vclock"
)

// This file defines the gateway's typed-error vocabulary. Every
// admission rejection is a distinct error type so servers can classify
// it (errtype.As via the Is* helpers, per the errclass lint invariant)
// and map it onto the right wire response: 401 for authentication, 429
// with a Retry-After hint for rate/quota/quarantine rejections, and 503
// while draining. Retry hints are virtual-cycle quantities — derived
// from per-request cycle budgets, never from wall time — so campaign
// traces that include them stay byte-identical across runs and hosts.

// RetryQuantum is the resolution of retry hints in virtual cycles
// (2^20 cycles ≈ 350µs at vclock.DefaultCPUHz). Quantizing hints keeps
// them deterministic currency: two runs that reject for the same reason
// at the same queue depth render the same hint bytes.
const RetryQuantum = 1 << 20

// QuantizeRetryCycles rounds a cycle count up to the retry-hint
// quantum; the minimum hint is one quantum, so a rejection never
// advertises "retry immediately".
func QuantizeRetryCycles(cycles uint64) uint64 {
	if cycles == 0 {
		return RetryQuantum
	}
	return (cycles + RetryQuantum - 1) / RetryQuantum * RetryQuantum
}

// RetrySeconds converts a cycle hint to the whole seconds an HTTP
// Retry-After header carries, rounding up (minimum 1: the header has no
// sub-second resolution).
func RetrySeconds(cycles uint64) int {
	d := vclock.CyclesToDuration(cycles, vclock.DefaultCPUHz)
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// AuthError reports a failed tenant authentication: missing, malformed,
// or unknown credentials. The reason is for the server log; the wire
// response is a uniform 401 so the error never leaks which part of the
// credential was wrong.
type AuthError struct {
	// Reason describes the failure for operators ("missing token",
	// "unknown token", ...).
	Reason string
}

// Error implements error.
func (e *AuthError) Error() string { return "gateway: unauthorized: " + e.Reason }

// RateLimitError reports a token-bucket rejection: the tenant exceeded
// its admission rate. RetryCycles is the quantized virtual-cycle hint
// until the bucket refills.
type RateLimitError struct {
	// Tenant is the rejected tenant.
	Tenant string
	// RetryCycles is the quantized virtual-cycle retry hint.
	RetryCycles uint64
}

// Error implements error.
func (e *RateLimitError) Error() string {
	return fmt.Sprintf("gateway: tenant %s rate limited, retry-after-cycles=%d", e.Tenant, e.RetryCycles)
}

// IsRateLimit reports whether err is (or wraps) a *RateLimitError,
// returning it.
func IsRateLimit(err error) (*RateLimitError, bool) {
	return errtype.As[*RateLimitError](err)
}

// QuotaError reports a per-tenant inflight-quota rejection: the tenant
// has too many admitted-but-unfinished requests. It is the per-tenant
// analogue of submit's pool-wide OverloadError.
type QuotaError struct {
	// Tenant is the rejected tenant.
	Tenant string
	// Inflight and Limit describe the quota at rejection.
	Inflight, Limit int
	// RetryCycles is the quantized virtual-cycle retry hint.
	RetryCycles uint64
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("gateway: tenant %s inflight quota full (%d/%d), retry-after-cycles=%d",
		e.Tenant, e.Inflight, e.Limit, e.RetryCycles)
}

// IsQuota reports whether err is (or wraps) a *QuotaError, returning it.
func IsQuota(err error) (*QuotaError, bool) {
	return errtype.As[*QuotaError](err)
}

// QuarantinedError reports that the circuit breaker has the tenant
// quarantined: it accumulated QuarantineAfter detections inside the
// sliding window and is rejected until an auto-probe completes cleanly.
type QuarantinedError struct {
	// Tenant is the quarantined tenant.
	Tenant string
	// Detections is the detection count in the window when the breaker
	// tripped.
	Detections int
	// ProbeIn is how many further arrivals until the next probe
	// admission (0 = the probe is in flight).
	ProbeIn uint64
}

// Error implements error.
func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("gateway: tenant %s quarantined (%d detections), probe-in=%d",
		e.Tenant, e.Detections, e.ProbeIn)
}

// IsQuarantined reports whether err is (or wraps) a *QuarantinedError,
// returning it.
func IsQuarantined(err error) (*QuarantinedError, bool) {
	return errtype.As[*QuarantinedError](err)
}

// DrainingError reports that the gateway has stopped admission for a
// graceful drain; no request admitted after StartDrain will execute.
type DrainingError struct{}

// Error implements error.
func (e *DrainingError) Error() string { return "gateway: draining, admission stopped" }

// IsDraining reports whether err is (or wraps) a *DrainingError.
func IsDraining(err error) bool {
	_, ok := errtype.As[*DrainingError](err)
	return ok
}

// RetryHintError decorates an admission rejection (the wrapped cause,
// typically submit's *OverloadError) with a deterministic, quantized
// retry hint. Its Error string deliberately omits the cause: the cause
// may carry host-timing-dependent detail (which worker's queue
// rejected), while the wire bytes of an overload response must be
// byte-identical across runs. Unwrap keeps the cause classifiable.
type RetryHintError struct {
	// Cycles is the quantized virtual-cycle retry hint.
	Cycles uint64
	// Cause is the underlying rejection.
	Cause error
}

// Error implements error with a fully deterministic rendering.
func (e *RetryHintError) Error() string {
	return fmt.Sprintf("busy retry-after-cycles=%d", e.Cycles)
}

// Unwrap exposes the underlying rejection to errors.Is/errors.As.
func (e *RetryHintError) Unwrap() error { return e.Cause }

// RetryAfterCycles extracts the quantized retry hint from a gateway or
// overload rejection (rate limit, quota, retry-hint wrapper), comma-ok
// style.
func RetryAfterCycles(err error) (uint64, bool) {
	// The outermost hint decorator wins: a *RetryHintError may wrap a
	// hintless cause (e.g. a bare quota error), and its Cycles is the
	// authoritative quantized value.
	if h, ok := errtype.As[*RetryHintError](err); ok {
		return h.Cycles, true
	}
	if r, ok := IsRateLimit(err); ok {
		return r.RetryCycles, true
	}
	if q, ok := IsQuota(err); ok {
		return q.RetryCycles, true
	}
	return 0, false
}
