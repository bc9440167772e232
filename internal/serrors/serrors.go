// Package serrors defines Starlink's structured error taxonomy: the
// sentinel errors every layer of the framework classifies its failures
// under, and the Mark helper that attaches a sentinel to a detailed
// error without losing either.
//
// The sentinels live here — in a leaf package with no Starlink
// dependencies — so that internal/engine, internal/provision and
// internal/registry can all tag their errors with them, and the public starlink package can re-export them,
// without an import cycle. Callers assert on them with errors.Is:
//
//	if errors.Is(err, serrors.ErrUnknownCase) { ... }
//
// A marked error matches both the sentinel and everything the wrapped
// detail error matches (context cancellation, typed inner errors, ...).
package serrors

import "errors"

var (
	// ErrUnknownCase marks a reference to a merged automaton (a
	// "case") that is not loaded in the registry.
	ErrUnknownCase = errors.New("unknown case")

	// ErrOverloaded marks work rejected or dropped because a
	// configured capacity bound was hit: the max-sessions semaphore, a
	// session's queue cap, or a full ingest queue.
	ErrOverloaded = errors.New("overloaded")

	// ErrAmbiguousPayload marks an entry payload that classified under
	// more than one hosted case. The payload is still dispatched — to
	// the lexicographically first case — but observers see the
	// ambiguity tagged with this sentinel.
	ErrAmbiguousPayload = errors.New("ambiguous payload")

	// ErrDraining marks work rejected because the deployment is
	// draining: it no longer admits new sessions and only lets the
	// in-flight ones finish.
	ErrDraining = errors.New("draining")

	// ErrModelInvalid marks a model document (MDL, colored automaton
	// or merged automaton) that failed to parse or validate.
	ErrModelInvalid = errors.New("model invalid")

	// ErrClosed marks an operation on a deployment that has already
	// been closed.
	ErrClosed = errors.New("closed")
)

// marked attaches a sentinel to a detail error. errors.Is matches the
// sentinel (via Is) and everything the detail matches (via Unwrap);
// errors.As reaches the detail's typed errors the same way.
type marked struct {
	err  error
	mark error
}

// Mark returns err tagged with the sentinel mark. A nil err returns
// nil. The result's Error text is err's own — the sentinel classifies,
// it does not decorate.
func Mark(err, mark error) error {
	if err == nil {
		return nil
	}
	return &marked{err: err, mark: mark}
}

func (m *marked) Error() string { return m.err.Error() }

func (m *marked) Unwrap() error { return m.err }

func (m *marked) Is(target error) bool { return errors.Is(m.mark, target) }
