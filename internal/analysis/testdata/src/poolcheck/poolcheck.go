// Fixtures for the poolcheck analyzer: pooled message ownership.
package poolcheck

import "starlink/internal/message"

func messageLeak(validate func() error) error {
	m := message.NewPooled("SLP", "Request") // want "never released or transferred"
	if err := validate(); err != nil {
		return err // m leaked
	}
	m.Release()
	return nil
}

func releaseOnEveryPath(parse func() error) error {
	m := message.NewPooled("SLP", "Request")
	if err := parse(); err != nil {
		m.Release()
		return err
	}
	m.Release()
	return nil
}

func useAfterRelease() int {
	m := message.NewPooled("SLP", "Request")
	m.Release()
	return m.Len() // want "use of m after release"
}

// Returning a pooled message hands ownership to the caller.
func returnedTree() *message.Message {
	m := message.NewPooled("SSDP", "MSearch")
	return m
}
