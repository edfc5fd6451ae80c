package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"flexlog/internal/types"
)

// OpError is the typed error returned by the client's Table-2 operations.
// It records which operation failed and on which log, and wraps the
// underlying cause so callers can match the sentinel errors:
//
//	var oe *core.OpError
//	if errors.As(err, &oe) { log.Printf("%s on %v failed", oe.Op, oe.Color) }
//	if errors.Is(err, core.ErrNotFound) { ... } // ⊥
//
// Context cancellation and deadline expiry surface here too:
// errors.Is(err, context.Canceled) / context.DeadlineExceeded.
type OpError struct {
	Op    string        // "append", "read", "subscribe", "trim", "multi-append"
	Color types.ColorID // the log the operation targeted
	SN    types.SN      // the SN involved, if the operation names one
	Err   error         // the underlying cause
}

func (e *OpError) Error() string {
	// The sentinel causes already carry the "flexlog: " prefix; strip it
	// so wrapped messages read "flexlog: read …: record not found" rather
	// than stuttering the module name.
	cause := strings.TrimPrefix(e.Err.Error(), "flexlog: ")
	if e.SN.Valid() {
		return fmt.Sprintf("flexlog: %s %v sn=%v: %s", e.Op, e.Color, e.SN, cause)
	}
	return fmt.Sprintf("flexlog: %s %v: %s", e.Op, e.Color, cause)
}

func (e *OpError) Unwrap() error { return e.Err }

// RetryAfterError wraps a QoS rejection (ErrThrottled / ErrOverloaded)
// with the server's retry-after hint. The client's retry loops honor the
// hint internally — they wait max(hint, jittered backoff) before the next
// attempt — and callers that drive their own retries can extract it with
// errors.As.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// retryAfterHint extracts the server's retry-after hint from an error
// chain; 0 when none.
func retryAfterHint(err error) time.Duration {
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		return ra.After
	}
	return 0
}

// opError wraps err in an *OpError unless it is nil or already one (the
// innermost operation wins — it knows the most specific context).
func opError(op string, color types.ColorID, sn types.SN, err error) error {
	if err == nil {
		return nil
	}
	var oe *OpError
	if errors.As(err, &oe) {
		return err
	}
	return &OpError{Op: op, Color: color, SN: sn, Err: err}
}
