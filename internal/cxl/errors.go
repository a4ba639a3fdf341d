package cxl

import (
	"errors"
	"fmt"
)

// Sentinel errors for the CXL.mem data path. Every transaction-level
// failure surfaced by RootPort, InterleaveSet or the MemIO adapters is
// a *PortError wrapping exactly one of these, so callers classify
// failures with errors.Is instead of string matching:
//
//	if errors.Is(err, cxl.ErrLinkDown) { ... }
//
// The address shapes are uniform across the whole I/O surface (see the
// MemIO contract in memio.go): line and burst entry points take a host
// physical address as uint64; ReadAt/WriteAt take a byte offset as
// int64.
var (
	// ErrLinkDown — the port has no trained endpoint.
	ErrLinkDown = errors.New("link down")
	// ErrUnaligned — a line op at a non-line-aligned HPA, or a burst
	// whose address/length is not line-granular.
	ErrUnaligned = errors.New("unaligned access")
	// ErrOutsideWindow — a striped transfer outside the interleave
	// set's HPA window.
	ErrOutsideWindow = errors.New("outside interleave window")
	// ErrUncorrectable — link-level retry budget exhausted: the flit
	// never crossed the wire intact.
	ErrUncorrectable = errors.New("uncorrectable link error")
	// ErrBadResponse — the endpoint answered with an unexpected or
	// error response opcode (unmapped address, poisoned line, device
	// fault).
	ErrBadResponse = errors.New("error response")
	// ErrTagMismatch — a response or data flit carried a tag/sequence
	// that does not match the request (protocol violation).
	ErrTagMismatch = errors.New("tag mismatch")
	// ErrTimeout — a transaction parked on a retrain longer than
	// PortOptions.RetrainTimeout. It never reached the device; the
	// caller decides whether to retry or fail.
	ErrTimeout = errors.New("operation timed out")
)

// PortError reports a transaction-level failure at a port. It wraps a
// sentinel (Err) classifying the failure; Why carries the human detail.
type PortError struct {
	Port string
	Op   string
	Addr uint64
	Why  string
	// Err is the sentinel this failure classifies as (errors.Is target).
	Err error
}

func (e *PortError) Error() string {
	return fmt.Sprintf("cxl: %s: %s @%#x: %s", e.Port, e.Op, e.Addr, e.Why)
}

// Unwrap exposes the sentinel for errors.Is/errors.As chains.
func (e *PortError) Unwrap() error { return e.Err }

// portErr builds a PortError wrapping sentinel with a detail string.
func portErr(port, op string, addr uint64, sentinel error, why string) *PortError {
	return &PortError{Port: port, Op: op, Addr: addr, Why: why, Err: sentinel}
}
