package starlink_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"starlink/internal/dst"
)

// TestDSTHashes holds the deterministic simulation traces byte for byte:
// every builtin scenario runs seeds 1–8, as `starlink-dst run` does, and
// the trace hashes must equal testdata/dst_hashes.txt, one "scenario seed
// hash" line each. A change that moves a hash regenerates the file with
// `go test -run TestDSTHashes -update .` and says why. Two scenarios
// with one trace at the same seed fail too: one of them checks nothing
// the other does not.
func TestDSTHashes(t *testing.T) {
	var got strings.Builder
	type run struct {
		seed int64
		hash uint64
	}
	seen := map[run]string{}
	for _, name := range dst.Names() {
		sc, err := dst.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			res, err := dst.Run(sc, seed, dst.Config{ModelsDir: "examples/models"})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			fmt.Fprintf(&got, "%s %d %016x\n", name, seed, res.TraceHash)
			if other, dup := seen[run{seed, res.TraceHash}]; dup {
				t.Errorf("scenarios %s and %s give one trace at seed %d", other, name, seed)
			}
			seen[run{seed, res.TraceHash}] = name
		}
	}
	const path = "testdata/dst_hashes.txt"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("DST trace hashes moved.\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
