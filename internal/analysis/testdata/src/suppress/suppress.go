// Fixtures for lint:ignore suppression, exercised through the errcmp
// analyzer.
package suppress

import "errors"

var errSentinel = errors.New("sentinel")

// A directive on the line above suppresses, and the reason documents
// the exception.
func suppressedAbove(err error) bool {
	//lint:ignore errcmp io.EOF identity is the documented bufio contract
	return err == errSentinel
}

// Same line works too.
func suppressedSameLine(err error) bool {
	return err == errSentinel //lint:ignore errcmp identity is intended here
}

// Without a reason the directive is inert: the exception stays visible.
func noReason(err error) bool {
	//lint:ignore errcmp
	return err == errSentinel // want "use errors.Is"
}

// A directive for a different analyzer does not suppress.
func wrongAnalyzer(err error) bool {
	//lint:ignore hotpathalloc reason text
	return err == errSentinel // want "use errors.Is"
}

func unsuppressed(err error) bool {
	return err == errSentinel // want "use errors.Is"
}
