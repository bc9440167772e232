// Command benchgate holds the counts the repository benchmark prints
// against committed expectations:
//
//	bash benchmarks/run.sh --workload W … | benchgate testdata/bench_counts.json W
//
// It reads the run's last line (the result object of benchmarks/README.md),
// requires "correct":true, and fails unless every row the file lists under
// the row set satisfies |got − value| ≤ tol. Value and tolerance live in
// the file: the tool has no flags and no policy, except that it refuses a
// timing. An improvement fails too, until its PR commits the new value.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// timeUnits are the benchmark's units that a clock produced.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate <expected.json> <row-set> < run-output")
		os.Exit(2)
	}
	expected, err := os.ReadFile(os.Args[1])
	if err == nil {
		err = gate(expected, os.Args[2], os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %s: level\n", os.Args[2])
}

// gate checks the last line of output against the rows of one set and
// reports every row that is off, not only the first. A row object's other
// keys (the spread that justified its tolerance) are for the reader.
func gate(expected []byte, set string, output io.Reader) error {
	var sets map[string]map[string]struct{ Value, Tol float64 }
	if err := json.Unmarshal(expected, &sets); err != nil {
		return fmt.Errorf("expectations: %w", err)
	}
	if len(sets[set]) == 0 {
		return fmt.Errorf("expectations list no rows under %q", set)
	}
	all, err := io.ReadAll(output)
	if err != nil {
		return err
	}
	all = bytes.TrimSpace(all)
	var res struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(all[bytes.LastIndexByte(all, '\n')+1:], &res); err != nil {
		return fmt.Errorf("%s: the run's last line is not a result object: %w", set, err)
	}
	if !res.Correct {
		return fmt.Errorf(`%s: the run failed its own checks ("correct":false)`, set)
	}
	var off []string
	for name, want := range sets[set] {
		got, printed := res.Metrics[name]
		switch {
		case !printed:
			off = append(off, fmt.Sprintf("%s: listed, but the run did not print it", name))
		case timeUnits[got.Unit]:
			off = append(off, fmt.Sprintf("%s: unit %q: timings are not gated, they are a paired-run claim", name, got.Unit))
		case !(math.Abs(got.Value-want.Value) <= want.Tol): // also true of a NaN
			off = append(off, fmt.Sprintf("%s = %.4f %s, want %.4f ± %g", name, got.Value, got.Unit, want.Value, want.Tol))
		}
	}
	if len(off) > 0 {
		sort.Strings(off)
		return fmt.Errorf("%s: %d of %d rows off (a change that is meant commits the new value):\n  %s",
			set, len(off), len(sets[set]), strings.Join(off, "\n  "))
	}
	return nil
}
