// Package registry loads and indexes Starlink models — MDL
// specifications, k-colored automata and merged automata — and builds
// the per-protocol codecs an engine deployment needs. It is the
// runtime embodiment of the paper's model-reuse claim (§V-C): each
// protocol is modelled once and reused across every merged automaton
// that mentions it.
//
// The registry is a concurrent, mutable model store: every method is
// safe for simultaneous use, Replace*/Unload mutate the loaded model
// set at runtime (the substrate of dynamic bridge provisioning), and a
// generation counter stamps each effective mutation so deployers can
// detect change. Compiled caches the per-case deployment artifacts —
// compiled program, entry-color index and codecs — so repeated
// deployments of an unchanged case do zero recompilation and zero
// codec construction.
//
// LoadFS is the one model loader: it reads a directory of MDL /
// colored automaton / merged automaton XML files (any fs.FS) and applies
// them with replace semantics. Builtin is LoadFS over the embedded
// models.FS; starlinkd -models, the provisioning watcher and mdlc pass
// os.DirFS(dir).
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"starlink/internal/automata"
	"starlink/internal/engine"
	"starlink/internal/mdl"
	"starlink/internal/merge"
	"starlink/internal/models"
	"starlink/internal/serrors"
	"starlink/internal/types"
)

// Registry indexes loaded models.
type Registry struct {
	types     *types.Registry
	typeFuncs *types.FuncRegistry

	mu       sync.RWMutex
	gen      uint64
	specs    map[string]*mdl.Spec           // by protocol
	automata map[string]*automata.Automaton // by model name (role-specific)
	merged   map[string]*merge.Merged       // by case name
	// Source documents, kept for identity checks (a Replace* with a
	// byte-identical document is a no-op) and for re-resolving merged
	// automata when an MDL or automaton they depend on changes.
	specDocs   map[string]string
	autoDocs   map[string]string
	mergedDocs map[string]string
	// compiled caches deployment artifacts per case; entries are
	// dropped when the case (or a model it depends on) changes.
	compiled map[string]*CompiledCase
}

// CompiledCase bundles everything a deployment of one case needs,
// built once per (case, generation): the merged automaton, its
// compiled step program, the entry-protocol color index and the
// MDL-specialised codecs. Codecs are stateless per call, so one
// CompiledCase is safely shared by every engine deployed from it.
type CompiledCase struct {
	// Case is the merged automaton name.
	Case string
	// Generation is the registry generation the artifacts were built
	// at. Two Compiled calls returning the same pointer (and hence
	// generation) are guaranteed to describe the same model state.
	Generation uint64
	Merged     *merge.Merged
	Program    []merge.Step
	// Entries maps each entry protocol (first compiled step for that
	// protocol is a receive) to the color it listens on.
	Entries map[string]automata.Color
	Codecs  map[string]*engine.Codec
}

// New returns an empty registry backed by the built-in type system.
func New() *Registry {
	return &Registry{
		types:      types.NewRegistry(),
		typeFuncs:  types.NewFuncRegistry(),
		specs:      map[string]*mdl.Spec{},
		automata:   map[string]*automata.Automaton{},
		merged:     map[string]*merge.Merged{},
		specDocs:   map[string]string{},
		autoDocs:   map[string]string{},
		mergedDocs: map[string]string{},
		compiled:   map[string]*CompiledCase{},
	}
}

// Builtin returns a registry preloaded with every model of the paper's
// case study: LoadFS over the embedded models.FS, which holds the four
// MDLs, eight role-specific colored automata and six merged automata.
func Builtin() (*Registry, error) {
	r := New()
	if _, err := LoadFS(r, models.FS); err != nil {
		return nil, err
	}
	return r, nil
}

// Generation returns the registry's mutation generation. It starts at
// zero and increases on every effective mutation (loads, non-identical
// replaces, unloads); identical-document replaces do not bump it.
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// LoadMDL parses, validates and indexes an MDL document. Loading a
// protocol that already has an MDL is an error; use ReplaceMDL for
// replace semantics.
func (r *Registry) LoadMDL(doc string) error {
	spec, err := mdl.ParseXMLString(doc)
	if err != nil {
		return serrors.Mark(err, serrors.ErrModelInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[spec.Protocol]; dup {
		return fmt.Errorf("registry: MDL for %q already loaded", spec.Protocol)
	}
	r.specs[spec.Protocol] = spec
	r.specDocs[spec.Protocol] = doc
	r.gen++
	return nil
}

// ReplaceMDL loads an MDL document, replacing any MDL already loaded
// for the protocol. Replacing with an identical document is a no-op.
// On an effective replace, every loaded merged automaton is re-resolved
// from its source document so no case keeps referencing the old spec;
// changed reports whether anything was mutated.
func (r *Registry) ReplaceMDL(doc string) (changed bool, err error) {
	spec, err := mdl.ParseXMLString(doc)
	if err != nil {
		return false, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, existed := r.specDocs[spec.Protocol]
	if existed && old == doc {
		return false, nil
	}
	r.specs[spec.Protocol] = spec
	r.specDocs[spec.Protocol] = doc
	// A brand-new protocol cannot be referenced by any loaded case, so
	// only an actual replacement forces dependents to re-resolve. The
	// generation bumps even when some dependent fails to re-resolve:
	// the mutation happened, and deployers must pick up the consistent
	// remainder (the failing cases keep their previous models).
	if existed {
		err = r.reresolveMergedLocked()
	}
	r.gen++
	return true, err
}

// LoadAutomaton parses, validates and indexes a colored automaton
// under a model name (e.g. "slp-server"). Loading a name twice is an
// error; use ReplaceAutomaton for replace semantics.
func (r *Registry) LoadAutomaton(name, doc string) error {
	a, err := automata.ParseXMLString(doc)
	if err != nil {
		return serrors.Mark(err, serrors.ErrModelInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.automata[name]; dup {
		return fmt.Errorf("registry: automaton %q already loaded", name)
	}
	if _, ok := r.specs[a.Protocol]; !ok {
		return fmt.Errorf("registry: automaton %q needs MDL for protocol %q (load MDLs first)", name, a.Protocol)
	}
	r.automata[name] = a
	r.autoDocs[name] = doc
	r.gen++
	return nil
}

// ReplaceAutomaton loads a colored automaton under a model name,
// replacing any automaton already loaded under it. Replacing with an
// identical document is a no-op. On an effective replace, every loaded
// merged automaton is re-resolved from source so no case keeps
// executing the old automaton.
func (r *Registry) ReplaceAutomaton(name, doc string) (changed bool, err error) {
	a, err := automata.ParseXMLString(doc)
	if err != nil {
		return false, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old, existed := r.autoDocs[name]
	if existed && old == doc {
		return false, nil
	}
	if _, ok := r.specs[a.Protocol]; !ok {
		return false, fmt.Errorf("registry: automaton %q needs MDL for protocol %q (load MDLs first)", name, a.Protocol)
	}
	r.automata[name] = a
	r.autoDocs[name] = doc
	// A brand-new model name cannot be referenced by any loaded case,
	// so only an actual replacement forces dependents to re-resolve.
	// See ReplaceMDL for why the generation bumps even on error.
	if existed {
		err = r.reresolveMergedLocked()
	}
	r.gen++
	return true, err
}

// LoadMerged parses, validates and indexes a merged automaton,
// resolving its automaton references against the registry. Loading a
// case name twice is an error; use ReplaceMerged for replace semantics.
func (r *Registry) LoadMerged(doc string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.parseMergedLocked(doc)
	if err != nil {
		return err
	}
	if _, dup := r.merged[m.Name]; dup {
		return fmt.Errorf("registry: merged automaton %q already loaded", m.Name)
	}
	r.merged[m.Name] = m
	r.mergedDocs[m.Name] = doc
	r.gen++
	return nil
}

// ReplaceMerged loads a merged automaton document, replacing any case
// already loaded under its name. Replacing with an identical document
// is a no-op; an effective replace drops the case's compiled cache
// entry, so the next Compiled call rebuilds it at a new generation.
func (r *Registry) ReplaceMerged(doc string) (changed bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.parseMergedLocked(doc)
	if err != nil {
		return false, err
	}
	if old, ok := r.mergedDocs[m.Name]; ok && old == doc {
		return false, nil
	}
	r.merged[m.Name] = m
	r.mergedDocs[m.Name] = doc
	delete(r.compiled, m.Name)
	r.gen++
	return true, nil
}

// Unload removes a merged automaton (and its compiled cache entry)
// from the registry. Engines already deployed from it keep running;
// unloading only prevents new deployments.
func (r *Registry) Unload(caseName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.merged[caseName]; !ok {
		return serrors.Mark(fmt.Errorf("registry: unknown merged automaton %q", caseName), serrors.ErrUnknownCase)
	}
	delete(r.merged, caseName)
	delete(r.mergedDocs, caseName)
	delete(r.compiled, caseName)
	r.gen++
	return nil
}

// parseMergedLocked parses and fully validates a merged automaton
// document against the registry's current models. Caller holds mu.
func (r *Registry) parseMergedLocked(doc string) (*merge.Merged, error) {
	m, err := merge.ParseXMLString(doc, merge.ResolverFunc(func(name string) (*automata.Automaton, error) {
		if a, ok := r.automata[name]; ok {
			return a, nil
		}
		return nil, fmt.Errorf("registry: unknown automaton %q", name)
	}))
	if err != nil {
		return nil, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	specs := map[string]*mdl.Spec{}
	for _, a := range m.Automata {
		specs[a.Protocol] = r.specs[a.Protocol]
	}
	if err := m.CheckEquivalences(specs); err != nil {
		return nil, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	return m, nil
}

// reresolveMergedLocked re-parses every loaded merged automaton from
// its source document, picking up replaced MDLs/automata, and drops
// the whole compiled cache. Caller holds mu. Every case is attempted —
// not just up to the first failure, which would leave the survivors
// depending on map iteration order — and a case that no longer
// resolves keeps its previous in-memory model; the aggregated error
// names each such case. The compiled cache is dropped even on error so
// no deployment keeps artifacts built from the pre-replace models.
func (r *Registry) reresolveMergedLocked() error {
	var failed []string
	for name, doc := range r.mergedDocs {
		m, err := r.parseMergedLocked(doc)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		r.merged[name] = m
	}
	r.compiled = map[string]*CompiledCase{}
	if len(failed) > 0 {
		sort.Strings(failed)
		return fmt.Errorf("registry: case(s) kept their previous model: %s", strings.Join(failed, "; "))
	}
	return nil
}

// Spec returns the MDL spec for a protocol.
func (r *Registry) Spec(protocol string) (*mdl.Spec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[protocol]
	if !ok {
		return nil, fmt.Errorf("registry: no MDL for protocol %q", protocol)
	}
	return s, nil
}

// Automaton returns the automaton loaded under a model name.
func (r *Registry) Automaton(name string) (*automata.Automaton, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if a, ok := r.automata[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("registry: unknown automaton %q", name)
}

// Merged returns the merged automaton for a case name.
func (r *Registry) Merged(name string) (*merge.Merged, error) {
	r.mu.RLock()
	m, ok := r.merged[name]
	r.mu.RUnlock()
	if !ok {
		return nil, serrors.Mark(
			fmt.Errorf("registry: unknown merged automaton %q (have %v)", name, r.MergedNames()),
			serrors.ErrUnknownCase)
	}
	return m, nil
}

// MergedNames lists the loaded case names, sorted.
func (r *Registry) MergedNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.mergedNamesLocked()
}

func (r *Registry) mergedNamesLocked() []string {
	out := make([]string, 0, len(r.merged))
	for n := range r.merged {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AutomatonNames lists the loaded automaton model names, sorted.
func (r *Registry) AutomatonNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.automata))
	for n := range r.automata {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Protocols lists the protocols with loaded MDLs, sorted.
func (r *Registry) Protocols() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.specs))
	for n := range r.specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Codecs builds the engine codec set for a merged automaton: one
// MDL-specialised parser/composer (plus framer where available) per
// member protocol. Deployment paths should prefer Compiled, which
// caches the codec set per case.
func (r *Registry) Codecs(m *merge.Merged) (map[string]*engine.Codec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.codecsLocked(m)
}

func (r *Registry) codecsLocked(m *merge.Merged) (map[string]*engine.Codec, error) {
	out := map[string]*engine.Codec{}
	for _, a := range m.Automata {
		spec, ok := r.specs[a.Protocol]
		if !ok {
			return nil, fmt.Errorf("registry: no MDL for protocol %q", a.Protocol)
		}
		c, err := engine.NewCodec(spec, r.types, r.typeFuncs)
		if err != nil {
			return nil, err
		}
		out[a.Protocol] = c
	}
	return out, nil
}

// Compiled returns the cached deployment artifacts for a case,
// building them on first use: compiled program, entry-color index and
// codec set. Repeated calls for an unchanged case return the same
// pointer — zero recompilation, zero codec construction. The cache
// entry is invalidated when the case (or an MDL/automaton it depends
// on) is replaced or unloaded.
func (r *Registry) Compiled(name string) (*CompiledCase, error) {
	r.mu.RLock()
	c, ok := r.compiled[name]
	r.mu.RUnlock()
	if ok {
		return c, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.compiled[name]; ok {
		return c, nil
	}
	m, ok := r.merged[name]
	if !ok {
		return nil, serrors.Mark(
			fmt.Errorf("registry: unknown merged automaton %q (have %v)", name, r.mergedNamesLocked()),
			serrors.ErrUnknownCase)
	}
	program, err := m.Compile()
	if err != nil {
		return nil, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	entries, err := m.EntryProtocols()
	if err != nil {
		return nil, serrors.Mark(err, serrors.ErrModelInvalid)
	}
	codecs, err := r.codecsLocked(m)
	if err != nil {
		return nil, err
	}
	c = &CompiledCase{
		Case:       name,
		Generation: r.gen,
		Merged:     m,
		Program:    program,
		Entries:    entries,
		Codecs:     codecs,
	}
	r.compiled[name] = c
	return c, nil
}

// Types exposes the shared marshaller registry (for plugging in
// additional MDL types at runtime, §IV-A).
func (r *Registry) Types() *types.Registry { return r.types }
