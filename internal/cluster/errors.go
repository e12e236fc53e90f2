package cluster

import (
	"fmt"

	"repro/internal/errtype"
	"repro/internal/gateway"
)

// This file defines the cluster tier's typed-error vocabulary, in the
// gateway's style: every routing refusal is a distinct type a caller
// can classify with a comma-ok helper (errclass lint invariant), and
// retry hints are quantized virtual-cycle quantities so rejection
// bytes are identical across runs and hosts.

// unavailableRetryCyclesPerLease is the per-lease-cycle cost estimate
// behind an UnavailableError's retry hint: one membership cycle is one
// request arrival, which the servers model at ~100µs of virtual time.
const unavailableRetryCyclesPerLease = 300_000

// UnavailableError reports that a request's slot has no live primary:
// its owner is crashed or partitioned and lease-based failure
// detection (and, with replicas, handoff) has not yet produced a new
// owner. The request was NOT executed — an unavailable nack is a
// promise that no server-side state changed.
type UnavailableError struct {
	// Slot is the virtual slot the request's key hashed to.
	Slot int
	// Node is the unreachable owner.
	Node NodeID
	// Reason describes why the owner is unreachable ("crashed",
	// "partitioned", "no live replica", ...).
	Reason string
	// RetryCycles is the quantized virtual-cycle retry hint — the
	// remaining lease window before failover can promote a replica.
	RetryCycles uint64
}

// Error implements error.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("cluster: slot %d unavailable (node %d %s) retry-after-cycles=%d",
		e.Slot, e.Node, e.Reason, e.RetryCycles)
}

// IsUnavailable reports whether err is (or wraps) an
// *UnavailableError, returning it.
func IsUnavailable(err error) (*UnavailableError, bool) {
	return errtype.As[*UnavailableError](err)
}

// newUnavailable builds the typed refusal with its quantized hint.
func newUnavailable(slot int, node NodeID, reason string, leaseCyclesLeft uint64) *UnavailableError {
	return &UnavailableError{
		Slot:        slot,
		Node:        node,
		Reason:      reason,
		RetryCycles: gateway.QuantizeRetryCycles(leaseCyclesLeft * unavailableRetryCyclesPerLease),
	}
}

// MembershipError reports an illegal registry operation: registering an
// id that already holds a live session, renewing an expired lease, or
// addressing an unknown node.
type MembershipError struct {
	// Node is the id the operation addressed.
	Node NodeID
	// Op is the refused operation ("Register", "Renew", ...).
	Op string
	// Reason explains the refusal.
	Reason string
}

// Error implements error.
func (e *MembershipError) Error() string {
	return fmt.Sprintf("cluster: %s node %d: %s", e.Op, e.Node, e.Reason)
}

// IsMembership reports whether err is (or wraps) a *MembershipError,
// returning it.
func IsMembership(err error) (*MembershipError, bool) {
	return errtype.As[*MembershipError](err)
}
