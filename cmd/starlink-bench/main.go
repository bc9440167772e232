// Command starlink-bench regenerates the paper's Fig. 12 tables: the
// native response times of the legacy discovery stacks (12(a)) and the
// Starlink translation times of the six bridge cases (12(b)), as
// min/median/max over -iters runs on the deterministic network
// simulator. The output is a function of -iters and -seed alone:
// internal/bench's TestFig12Golden holds `-table both -seed 9` byte for
// byte.
//
// Warm per-interaction cost over real sockets is the repository
// benchmark's (benchmarks/README.md), not this command's.
//
// Usage:
//
//	starlink-bench [-table a|b|both] [-iters 100] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"starlink/internal/bench"
)

func main() {
	table := flag.String("table", "both", "which table to run: a, b or both")
	iters := flag.Int("iters", 100, "iterations per row (the paper used 100)")
	seed := flag.Int64("seed", 1, "base RNG seed (results are deterministic per seed)")
	flag.Parse()

	if *table != "a" && *table != "b" && *table != "both" {
		fmt.Fprintf(os.Stderr, "starlink-bench: unknown table %q (want a, b or both)\n", *table)
		os.Exit(2)
	}
	if *table != "b" {
		out, err := bench.Fig12aTable(*iters, *seed)
		exitOn(err)
		fmt.Println(out)
	}
	if *table != "a" {
		out, err := bench.Fig12bTable(*iters, *seed)
		exitOn(err)
		fmt.Println(out)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "starlink-bench:", err)
		os.Exit(1)
	}
}
