// Command starlink-vet runs Starlink's static-analysis suite: the
// project-specific analyzers that machine-check the runtime's dispatch
// domains, error comparisons and hot-path allocations (see
// internal/analysis).
//
// Standalone:
//
//	starlink-vet ./...
//
// As a go vet backend (also covers _test.go files):
//
//	go build -o /tmp/starlink-vet ./cmd/starlink-vet
//	go vet -vettool=/tmp/starlink-vet ./...
//
// Exit status is 0 when clean, 2 when the suite reports diagnostics.
// Suppress a deliberate exception with
// `//lint:ignore <analyzer> <reason>` on or directly above the flagged
// line; the reason is mandatory.
package main

import (
	"os"

	"starlink/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:]))
}
