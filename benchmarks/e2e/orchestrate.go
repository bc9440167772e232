package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSet is one pass over the workloads: per workload, the timed run's
// result and, when asked for, the traced run's.
type runSet map[string]struct {
	Timed  result  `json:"timed"`
	Traced *result `json:"traced,omitempty"`
}

// runChild runs one workload in a process of its own, so no workload
// inherits another's heap, pools or transport counters. The child's
// human-readable lines pass through; its last line is the result.
func runChild(name string, seed int64, seconds, trace int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if last != "" {
			fmt.Println(last)
		}
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

func runAll(seed int64, seconds int, names []string, traced bool) (runSet, error) {
	set := runSet{}
	for _, name := range names {
		entry := set[name]
		var err error
		if entry.Timed, err = runChild(name, seed, seconds, 0); err != nil {
			return set, err
		}
		if traced {
			r, err := runChild(name, seed, seconds, 1)
			if err != nil {
				return set, err
			}
			entry.Traced = &r
		}
		set[name] = entry
	}
	fmt.Printf("\nend-to-end, seed %d, %d s per workload in %d segments\n%-28s", seed, seconds, segmentsPerRun, "")
	for _, name := range names {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, m := range sortedNames(set[names[0]].Timed.Metrics) {
		fmt.Printf("%-28s", m+" ["+set[names[0]].Timed.Metrics[m].Unit+"]")
		for _, name := range names {
			fmt.Printf(" %14.4f", set[name].Timed.Metrics[m].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-28s", "failed / attempted")
	for _, name := range names {
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", set[name].Timed.Failed, set[name].Timed.Attempted))
	}
	fmt.Println()
	return set, nil
}

// bounds reads the committed regression bounds from BENCHMARK.json in
// the directory the benchmark is run from.
func bounds() map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil || json.Unmarshal(data, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// runAA runs every workload twice back to back, the second pass in
// reverse order, and prints how far the two passes of the same commit
// disagree against each metric's bound. This is what sets the bounds.
func runAA(seed int64, seconds int) error {
	names := workloadNames()
	reversed := make([]string, len(names))
	for i, n := range names {
		reversed[len(names)-1-i] = n
	}
	a, err := runAll(seed, seconds, names, false)
	if err != nil {
		return err
	}
	b, err := runAll(seed, seconds, reversed, false)
	if err != nil {
		return err
	}
	bound := bounds()
	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		Diff     float64 `json:"relative_difference"`
		Bound    float64 `json:"bound"`
		Within   bool    `json:"within_bound"`
	}
	var rows []row
	exceeded := 0
	fmt.Printf("\nA/A seed %d: relative difference between two passes of one commit\n", seed)
	for _, name := range names {
		for _, m := range sortedNames(a[name].Timed.Metrics) {
			va, vb := a[name].Timed.Metrics[m].Value, b[name].Timed.Metrics[m].Value
			r := row{Workload: name, Metric: m, A: va, B: vb, Diff: ratio(math.Abs(va-vb), va), Bound: bound[m]}
			r.Within = r.Bound == 0 || r.Diff <= r.Bound
			verdict := "ok"
			if !r.Within {
				verdict = "EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("  %-13s %-28s %14.4f %14.4f  %6.2f%% of %5.1f%%  %s\n", name, m, va, vb, 100*r.Diff, 100*r.Bound, verdict)
			rows = append(rows, r)
		}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"seed": seed, "seconds": seconds, "rows": rows}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(traceDir, "aa.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("written", path)
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ by more than their bound", exceeded)
	}
	return nil
}
