package igp

import "repro/internal/cancel"

// ErrCanceled is the sentinel every context-driven abort matches:
// errors.Is(err, ErrCanceled) is true exactly when a Repartition (or a
// solve inside one) stopped because its context was done. The returned
// error is a [*CanceledError] wrapping context.Cause, so
// errors.Is(err, context.DeadlineExceeded) etc. also work.
var ErrCanceled = cancel.ErrCanceled

// CanceledError is the typed error returned for context-driven aborts:
// Op names the pipeline stage that observed the done context, Cause
// carries context.Cause at that moment.
type CanceledError = cancel.Error
