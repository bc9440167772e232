// Command mdlc inspects and validates Starlink models: MDL
// specifications, k-colored automata and merged automata. It is the
// developer-facing half of the paper's "minimise development effort"
// requirement — model errors surface here, before deployment.
//
// Usage:
//
//	mdlc list                      list the built-in models
//	mdlc dot <automaton>           Graphviz export (Figs. 1/2/3/9)
//	mdlc program <case>            compiled execution program of a case
//	mdlc check <file.xml>          apply an MDL / automaton / merged
//	                               automaton document to the builtins
//	                               as a -models directory would
//	mdlc validate <dir>            load a model directory over the
//	                               builtins (the starlinkd -models
//	                               loader) and compile every case;
//	                               exits non-zero on the first error
//	mdlc lint <dir>                validate plus the full lint rule
//	                               set: dead-end states, dangling
//	                               translation fields, discriminator
//	                               collisions, shadowed messages,
//	                               non-round-trippable field layouts;
//	                               exits non-zero on any error-severity
//	                               diagnostic
//
// validate and lint share one rule registry (internal/mdllint);
// validate runs the schema tier, lint runs everything.
package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"starlink/internal/mdllint"
	"starlink/internal/registry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	reg, err := registry.Builtin()
	if err != nil {
		fatal(err)
	}
	switch os.Args[1] {
	case "list":
		fmt.Println("Protocols (MDLs):")
		for _, p := range reg.Protocols() {
			spec, _ := reg.Spec(p)
			fmt.Printf("  %-6s dialect=%s messages=%d\n", p, spec.Dialect, len(spec.Messages))
		}
		fmt.Println("Colored automata:")
		for _, n := range reg.AutomatonNames() {
			a, _ := reg.Automaton(n)
			fmt.Printf("  %-12s protocol=%s states=%d colors=%d\n", n, a.Protocol, len(a.States), len(a.Colors()))
		}
		fmt.Println("Merged automata (bridge cases):")
		for _, n := range reg.MergedNames() {
			m, _ := reg.Merged(n)
			fmt.Printf("  %-16s initiator=%s automata=%d δ=%d assignments=%d\n",
				n, m.Initiator, len(m.Automata), len(m.Deltas), len(m.Logic.Assignments))
		}
	case "dot":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		a, err := reg.Automaton(os.Args[2])
		if err != nil {
			fatal(err)
		}
		fmt.Print(a.DOT())
	case "program":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		m, err := reg.Merged(os.Args[2])
		if err != nil {
			fatal(err)
		}
		program, err := m.Compile()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("case %s (initiator %s), %d steps:\n", m.Name, m.Initiator, len(program))
		for i, s := range program {
			fmt.Printf("  %2d  %s\n", i, s)
		}
	case "check":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		if err := check(reg, os.Args[2]); err != nil {
			fatal(err)
		}
		fmt.Println("OK")
	case "validate":
		// The schema tier of the lint registry: every document loads
		// and every case (builtin and external) compiles end to end —
		// step program, entry-color index and MDL-specialised codecs,
		// exactly what a deployment needs.
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		ctx, diags, err := mdllint.Run(os.Args[2], mdllint.TierSchema)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			if d.Severity >= mdllint.SevError {
				fatal(errors.New(d.Message))
			}
		}
		fmt.Printf("%s: %s; %d cases compile\n", os.Args[2], ctx.Load, len(ctx.Reg.MergedNames()))
	case "lint":
		if len(os.Args) != 3 {
			usage()
			os.Exit(2)
		}
		_, diags, err := mdllint.Run(os.Args[2], mdllint.TierLint)
		if err != nil {
			fatal(err)
		}
		failed := false
		for _, d := range diags {
			fmt.Println(d)
			if d.Severity >= mdllint.SevError {
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Printf("%s: %d diagnostics, none above %s\n", os.Args[2], len(diags), maxSevName(diags))
	default:
		usage()
		os.Exit(2)
	}
}

// check applies one model file to reg through LoadFS's per-document
// step, so it refuses every document a model directory load refuses. An
// automaton is named by its file's base name, as in a directory.
func check(reg *registry.Registry, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = reg.ReplaceDoc(strings.TrimSuffix(filepath.Base(path), ".xml"), string(data))
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mdlc list | dot <automaton> | program <case> | check <file.xml> | validate <dir> | lint <dir>")
}

// maxSevName names the highest severity present, for the lint summary.
func maxSevName(diags []mdllint.Diagnostic) string {
	max, ok := mdllint.MaxSeverity(diags)
	if !ok {
		return mdllint.SevInfo.String()
	}
	return max.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdlc:", err)
	os.Exit(1)
}
