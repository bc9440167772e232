package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
)

// DocKind classifies a model document by its root element.
type DocKind int

// Document kinds, in load order: MDLs first (automata need their
// protocol's spec), then automata (merged automata reference them),
// then merged automata.
const (
	KindUnknown DocKind = iota
	KindMDL
	KindAutomaton
	KindMerged
)

// String renders the kind.
func (k DocKind) String() string {
	switch k {
	case KindMDL:
		return "MDL"
	case KindAutomaton:
		return "automaton"
	case KindMerged:
		return "merged automaton"
	default:
		return "unknown"
	}
}

var errUnknownRoot = errors.New("unrecognised document root (want MDL, Automaton or MergedAutomaton)")

// Classify inspects a model document's root element, skipping an XML
// declaration and comments before it.
func Classify(doc string) DocKind {
	rest := strings.TrimSpace(doc)
	for {
		end := "-->"
		if strings.HasPrefix(rest, "<?") {
			end = "?>"
		} else if !strings.HasPrefix(rest, "<!--") {
			break
		}
		i := strings.Index(rest, end)
		if i < 0 {
			return KindUnknown
		}
		rest = strings.TrimSpace(rest[i+len(end):])
	}
	switch {
	case strings.HasPrefix(rest, "<MDL"):
		return KindMDL
	case strings.HasPrefix(rest, "<Automaton"):
		return KindAutomaton
	case strings.HasPrefix(rest, "<MergedAutomaton"):
		return KindMerged
	default:
		return KindUnknown
	}
}

// LoadResult summarises one LoadFS application.
type LoadResult struct {
	// MDLs, Automata and Cases name the models that were effectively
	// loaded or replaced (identical-document no-ops excluded).
	MDLs     []string
	Automata []string
	Cases    []string
	// Unchanged counts files whose document was already loaded
	// byte-identically.
	Unchanged int
}

// Changed reports whether the load mutated the registry.
func (r LoadResult) Changed() bool {
	return len(r.MDLs)+len(r.Automata)+len(r.Cases) > 0
}

// String renders a compact summary.
func (r LoadResult) String() string {
	return fmt.Sprintf("%d MDLs, %d automata, %d cases applied (%d unchanged)",
		len(r.MDLs), len(r.Automata), len(r.Cases), r.Unchanged)
}

// ReplaceDoc applies one model document of any kind with replace
// semantics: ReplaceMDL, ReplaceAutomaton under name, or ReplaceMerged.
// It is LoadFS's step for each file.
func (r *Registry) ReplaceDoc(name, doc string) (changed bool, err error) {
	switch Classify(doc) {
	case KindMDL:
		return r.ReplaceMDL(doc)
	case KindAutomaton:
		return r.ReplaceAutomaton(name, doc)
	case KindMerged:
		return r.ReplaceMerged(doc)
	default:
		return false, errUnknownRoot
	}
}

// LoadFS reads every *.xml file at the root of fsys, classifies each
// document by root element, and applies them to the registry through
// ReplaceDoc in dependency order: MDLs, then colored automata, then
// merged automata, each kind by file name. An automaton's model name is
// its file base name (slp-server-alt.xml loads as "slp-server-alt");
// MDLs and merged automata are named by their documents. Files whose
// document is already loaded byte for byte are no-ops, so re-loading an
// unchanged directory mutates nothing and bumps no generation.
//
// A missing directory loads as empty. The first file that fails to
// classify, parse or validate aborts the load; models applied before
// the failure stay applied (the watcher logs and retries, mdlc validate
// exits non-zero).
func LoadFS(reg *Registry, fsys fs.FS) (LoadResult, error) {
	var res LoadResult
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return res, nil
		}
		return res, fmt.Errorf("registry: %w", err)
	}

	type file struct {
		name string // base name without extension
		doc  string
		kind DocKind
	}
	var files []file
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		data, err := fs.ReadFile(fsys, e.Name())
		if err != nil {
			return res, fmt.Errorf("registry: %w", err)
		}
		doc := string(data)
		kind := Classify(doc)
		if kind == KindUnknown {
			return res, fmt.Errorf("registry: %s: %w", e.Name(), errUnknownRoot)
		}
		files = append(files, file{name: strings.TrimSuffix(e.Name(), ".xml"), doc: doc, kind: kind})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].kind != files[j].kind {
			return files[i].kind < files[j].kind
		}
		return files[i].name < files[j].name
	})

	for _, f := range files {
		changed, err := reg.ReplaceDoc(f.name, f.doc)
		if err != nil {
			return res, fmt.Errorf("registry: %s.xml: %w", f.name, err)
		}
		switch {
		case !changed:
			res.Unchanged++
		case f.kind == KindMDL:
			res.MDLs = append(res.MDLs, f.name)
		case f.kind == KindAutomaton:
			res.Automata = append(res.Automata, f.name)
		default:
			res.Cases = append(res.Cases, f.name)
		}
	}
	return res, nil
}
