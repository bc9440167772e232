package starlink

import "starlink/internal/serrors"

// The structured error taxonomy. Every failure the framework reports —
// from deploy calls, registry mutations, Shutdown, and the drop events
// delivered to observers — is classified under one of these sentinels
// and asserted with errors.Is; the detailed message (case name,
// origin, configured bound) always travels with the sentinel via the
// wrapped error chain.
var (
	// ErrUnknownCase marks a reference to a merged automaton (a
	// "case") that is not loaded in the registry: deploying it,
	// unloading it, or selecting it for a dispatcher.
	ErrUnknownCase = serrors.ErrUnknownCase

	// ErrOverloaded marks work refused because a configured capacity
	// bound was hit: an initiator request beyond WithMaxSessions, or a
	// payload dropped from a full ingest queue or beyond a session's
	// queue cap.
	ErrOverloaded = serrors.ErrOverloaded

	// ErrAmbiguousPayload marks an entry payload that classified under
	// more than one hosted case. The payload is still dispatched —
	// deterministically, to the lexicographically first case — and the
	// ambiguity reaches observers through OnClassify.
	ErrAmbiguousPayload = serrors.ErrAmbiguousPayload

	// ErrDraining marks work refused because the deployment is
	// draining: initiator requests arriving after Shutdown began, and
	// Sync calls on a draining dispatcher.
	ErrDraining = serrors.ErrDraining

	// ErrModelInvalid marks a model document (MDL, colored automaton
	// or merged automaton) that failed to parse or validate.
	ErrModelInvalid = serrors.ErrModelInvalid

	// ErrClosed marks an operation on a deployment that has already
	// been closed.
	ErrClosed = serrors.ErrClosed
)
