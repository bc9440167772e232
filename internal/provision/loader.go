// Package provision turns Starlink into a dynamically provisioned,
// multi-tenant runtime: bridges are no longer chosen once at process
// start, but assembled from declarative models when heterogeneous
// parties actually meet (the paper's headline *runtime*
// interoperability claim, and the dynamic mediator selection of
// Spalazzese & Inverardi's mediating connectors).
//
// The package has three parts:
//
//   - a model-directory loader (LoadDir) that reads MDL / colored
//     automaton / merged automaton XML files from disk and applies
//     them to a live registry with replace semantics;
//   - a polling Watcher that re-loads the directory when files change
//     (or on demand, e.g. from SIGHUP), so a new case dropped into the
//     directory deploys with zero restart;
//   - a Dispatcher that hosts every loaded case in one daemon at once:
//     it indexes each case's entry colors, binds one shared listener
//     per color, and classifies unknown inbound payloads — by a
//     signature index derived from the MDLs, by trial-parsing where a
//     candidate has no derivable signature — before handing them to
//     the right engine. Deploy creates the bridge host it runs on. What
//     it observes goes to one Sink, which every hosted engine shares;
//     what it counts is read as one Snapshot.
package provision

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"starlink/internal/registry"
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

// Classify inspects a model document's root element.
func Classify(doc string) DocKind {
	trimmed := strings.TrimSpace(doc)
	// Skip an XML declaration if present.
	if strings.HasPrefix(trimmed, "<?") {
		if i := strings.Index(trimmed, "?>"); i >= 0 {
			trimmed = strings.TrimSpace(trimmed[i+2:])
		}
	}
	switch {
	case strings.HasPrefix(trimmed, "<MDL"):
		return KindMDL
	case strings.HasPrefix(trimmed, "<Automaton"):
		return KindAutomaton
	case strings.HasPrefix(trimmed, "<MergedAutomaton"):
		return KindMerged
	default:
		return KindUnknown
	}
}

// LoadResult summarises one LoadDir application.
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

// LoadDir reads every *.xml file in dir, classifies each document by
// root element, and applies them to the registry with replace
// semantics, in dependency order: MDLs, then colored automata, then
// merged automata. An automaton's model name is its file base name
// (models/slp-server-alt.xml loads as "slp-server-alt"); MDLs and
// merged automata are named by their documents. Files whose document
// is already loaded byte-identically are no-ops, so re-loading an
// unchanged directory mutates nothing and bumps no generation.
//
// A missing directory is treated as empty. The first file that fails
// to parse or validate aborts the load; models applied before the
// failure stay applied (the watcher logs and retries, mdlc validate
// exits non-zero).
func LoadDir(reg *registry.Registry, dir string) (LoadResult, error) {
	var res LoadResult
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return res, nil
		}
		return res, fmt.Errorf("provision: %w", err)
	}

	type file struct {
		name string // base name without extension
		path string
		doc  string
		kind DocKind
	}
	var files []file
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return res, fmt.Errorf("provision: %w", err)
		}
		doc := string(data)
		kind := Classify(doc)
		if kind == KindUnknown {
			return res, fmt.Errorf("provision: %s: unrecognised document root (want MDL, Automaton or MergedAutomaton)", path)
		}
		files = append(files, file{
			name: strings.TrimSuffix(e.Name(), ".xml"),
			path: path,
			doc:  doc,
			kind: kind,
		})
	}
	// Deterministic application order: by kind, then by file name.
	sort.Slice(files, func(i, j int) bool {
		if files[i].kind != files[j].kind {
			return files[i].kind < files[j].kind
		}
		return files[i].name < files[j].name
	})

	for _, f := range files {
		var changed bool
		var name string
		var err error
		switch f.kind {
		case KindMDL:
			changed, err = reg.ReplaceMDL(f.doc)
			name = f.name
		case KindAutomaton:
			changed, err = reg.ReplaceAutomaton(f.name, f.doc)
			name = f.name
		case KindMerged:
			changed, err = reg.ReplaceMerged(f.doc)
			name = f.name
		}
		if err != nil {
			return res, fmt.Errorf("provision: %s: %w", f.path, err)
		}
		if !changed {
			res.Unchanged++
			continue
		}
		switch f.kind {
		case KindMDL:
			res.MDLs = append(res.MDLs, name)
		case KindAutomaton:
			res.Automata = append(res.Automata, name)
		case KindMerged:
			res.Cases = append(res.Cases, name)
		}
	}
	return res, nil
}
