// Package mdllint statically verifies Starlink model directories:
// MDL specifications, k-colored automata and merged automata, loaded
// over the builtins exactly as starlinkd -models would load them.
//
// The checks are organised as a single rule registry with two
// strictness tiers. The schema tier is what `mdlc validate` has always
// run — the model must load and every case must compile end to end.
// The lint tier adds rules for model defects that load-time validation
// accepts but that fail (or silently misbehave) at bridge runtime:
// automaton states no execution can leave, transition messages with no
// MDL definition, translation logic addressing fields that do not
// exist or messages the case never composes, constants a case restates
// from an MDL, message rules that shadow each other or can never match,
// field widths the wire codec cannot round-trip, and dispatcher
// discriminator collisions between cases sharing a network color.
package mdllint

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"starlink/internal/automata"
	"starlink/internal/engine"
	"starlink/internal/mdl"
	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/registry"
	"starlink/internal/translation"
	"starlink/internal/xpath"
)

// Severity grades a diagnostic.
type Severity int

// Severity levels, in increasing order of gravity. Info marks
// conditions the runtime handles deliberately (counted ambiguity);
// Warning marks conditions the linter cannot prove safe; Error marks
// defects that will fail or misbehave at runtime.
const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String renders the conventional lowercase level name.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Tier selects how much of the rule registry runs.
type Tier int

// Tiers. TierSchema is the `mdlc validate` contract: models load and
// cases compile. TierLint additionally runs every lint rule.
const (
	TierSchema Tier = iota
	TierLint
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Rule is the reporting rule's name.
	Rule string
	// Severity grades the finding.
	Severity Severity
	// Model names the model the finding is about (protocol, automaton
	// model name, case name or directory).
	Model string
	// Message is the human-readable description.
	Message string
}

// String renders "error: rule: model: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", d.Severity, d.Rule, d.Model, d.Message)
}

// Context is the shared state rules run against: the registry after
// the directory load, plus the load outcome itself.
type Context struct {
	Reg *registry.Registry
	// Dir is the linted model directory.
	Dir string
	// Load is the directory load result (valid when LoadErr is nil).
	Load registry.LoadResult
	// LoadErr is the directory load failure, if any. Models applied
	// before the failing file stay applied, so lint rules still run
	// over the partial state.
	LoadErr error
}

// Rule is one named check.
type Rule struct {
	Name string
	Tier Tier
	// Doc is a one-line description for listings and documentation.
	Doc string
	Run func(*Context) []Diagnostic
}

// Rules returns the full registry in execution order. The first two
// rules form the schema tier (the historical `mdlc validate`); the
// rest are lint-tier.
func Rules() []Rule {
	return []Rule{
		{
			Name: "model-load",
			Tier: TierSchema,
			Doc:  "every document in the directory parses and validates",
			Run:  ruleModelLoad,
		},
		{
			Name: "case-compile",
			Tier: TierSchema,
			Doc:  "every merged case compiles end to end (program, entries, codecs)",
			Run:  ruleCaseCompile,
		},
		{
			Name: "unknown-message",
			Tier: TierLint,
			Doc:  "automaton transitions only use messages their protocol's MDL defines",
			Run:  ruleUnknownMessage,
		},
		{
			Name: "dead-end-state",
			Tier: TierLint,
			Doc:  "every non-final state has an outgoing transition or δ-transition",
			Run:  ruleDeadEndState,
		},
		{
			Name: "translation-field",
			Tier: TierLint,
			Doc:  "translation logic and λ actions address existing messages and fields",
			Run:  ruleTranslationField,
		},
		{
			Name: "shadowed-message",
			Tier: TierLint,
			Doc:  "no two messages of a protocol share a discriminator value",
			Run:  ruleShadowedMessage,
		},
		{
			Name: "restated-constant",
			Tier: TierLint,
			Doc:  "no assignment sets a field to the value its message's MDL already fixes",
			Run:  ruleRestatedConstant,
		},
		{
			Name: "unmatchable-rule",
			Tier: TierLint,
			Doc:  "every fixed value of a message, the rule included, is representable in its field",
			Run:  ruleUnmatchableRule,
		},
		{
			Name: "lossy-roundtrip",
			Tier: TierLint,
			Doc:  "every fixed-width field can round-trip through the wire codec",
			Run:  ruleLossyRoundtrip,
		},
		{
			Name: "discriminator-collision",
			Tier: TierLint,
			Doc:  "no message of one protocol on a shared entry color classifies as another protocol's",
			Run:  ruleDiscriminatorCollision,
		},
		{
			Name: "txid",
			Tier: TierLint,
			Doc:  "a color's txid names a ≥16-bit integer header field of a client-role datagram protocol that no case assigns",
			Run:  ruleTxID,
		},
	}
}

// Run loads dir over the builtin models and executes every rule at or
// below the requested tier. The returned diagnostics are ordered by
// rule registration order; the error covers only infrastructure
// failures (the builtin registry itself broken) — model problems are
// diagnostics, not errors.
func Run(dir string, tier Tier) (*Context, []Diagnostic, error) {
	reg, err := registry.Builtin()
	if err != nil {
		return nil, nil, err
	}
	ctx := &Context{Reg: reg, Dir: dir}
	ctx.Load, ctx.LoadErr = registry.LoadFS(reg, os.DirFS(dir))
	var diags []Diagnostic
	for _, r := range Rules() {
		if r.Tier > tier {
			continue
		}
		diags = append(diags, r.Run(ctx)...)
	}
	return ctx, diags, nil
}

// MaxSeverity returns the highest severity present, and false when
// there are no diagnostics.
func MaxSeverity(diags []Diagnostic) (Severity, bool) {
	if len(diags) == 0 {
		return SevInfo, false
	}
	max := SevInfo
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// ---- schema tier ----

func ruleModelLoad(ctx *Context) []Diagnostic {
	if ctx.LoadErr == nil {
		return nil
	}
	return []Diagnostic{{
		Rule:     "model-load",
		Severity: SevError,
		Model:    ctx.Dir,
		Message:  ctx.LoadErr.Error(),
	}}
}

func ruleCaseCompile(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	for _, name := range ctx.Reg.MergedNames() {
		if _, err := ctx.Reg.Compiled(name); err != nil {
			diags = append(diags, Diagnostic{
				Rule:     "case-compile",
				Severity: SevError,
				Model:    name,
				Message:  err.Error(),
			})
		}
	}
	return diags
}

// ---- lint tier ----

// specs returns the loaded MDL specs keyed by protocol.
func specs(ctx *Context) map[string]*mdl.Spec {
	out := map[string]*mdl.Spec{}
	for _, p := range ctx.Reg.Protocols() {
		if s, err := ctx.Reg.Spec(p); err == nil {
			out[p] = s
		}
	}
	return out
}

// findMessage locates an abstract message definition across all loaded
// specs (abstract message names are globally unique in practice; the
// merged-automaton validator relies on the same lookup).
func findMessage(specs map[string]*mdl.Spec, name string) (*mdl.MessageDef, *mdl.Spec) {
	for _, s := range specs {
		if d, ok := s.MessageByName(name); ok {
			return d, s
		}
	}
	return nil, nil
}

// ruleUnknownMessage flags automaton transitions whose message has no
// definition in the protocol's MDL. Nothing at load or compile time
// checks this pairing; the failure otherwise surfaces mid-bridge when
// the engine asks the codec to parse or compose the unknown message.
func ruleUnknownMessage(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	for _, n := range ctx.Reg.AutomatonNames() {
		a, err := ctx.Reg.Automaton(n)
		if err != nil {
			continue
		}
		spec, err := ctx.Reg.Spec(a.Protocol)
		if err != nil {
			diags = append(diags, Diagnostic{
				Rule:     "unknown-message",
				Severity: SevError,
				Model:    n,
				Message:  fmt.Sprintf("automaton protocol %q has no MDL loaded", a.Protocol),
			})
			continue
		}
		for _, t := range a.Transitions {
			if _, ok := spec.MessageByName(t.Message); !ok {
				diags = append(diags, Diagnostic{
					Rule:     "unknown-message",
					Severity: SevError,
					Model:    n,
					Message: fmt.Sprintf("transition %s -> %s uses message %q, which MDL %s does not define",
						t.From, t.To, t.Message, a.Protocol),
				})
			}
		}
	}
	return diags
}

// ruleDeadEndState flags non-final states no execution can leave:
// no outgoing transition in the automaton and no δ-transition leaving
// the state in any loaded case. Automaton validation guarantees
// reachability but not liveness — a session parked in such a state
// holds its color's network resources forever.
func ruleDeadEndState(ctx *Context) []Diagnostic {
	// δ sources, by automaton pointer (the registry hands every merged
	// case the same shared *Automaton it serves standalone).
	deltaOut := map[*automata.Automaton]map[string]bool{}
	for _, name := range ctx.Reg.MergedNames() {
		m, err := ctx.Reg.Merged(name)
		if err != nil {
			continue
		}
		for _, d := range m.Deltas {
			for _, a := range m.Automata {
				if a.Protocol == d.From.Protocol {
					if deltaOut[a] == nil {
						deltaOut[a] = map[string]bool{}
					}
					deltaOut[a][d.From.State] = true
				}
			}
		}
	}
	var diags []Diagnostic
	for _, n := range ctx.Reg.AutomatonNames() {
		a, err := ctx.Reg.Automaton(n)
		if err != nil {
			continue
		}
		for _, s := range a.States {
			if a.IsFinal(s.Name) || len(a.OutTransitions(s.Name)) > 0 || deltaOut[a][s.Name] {
				continue
			}
			diags = append(diags, Diagnostic{
				Rule:     "dead-end-state",
				Severity: SevWarning,
				Model:    n,
				Message: fmt.Sprintf("state %q is not final and has no outgoing transition or δ-transition; a session reaching it never terminates",
					s.Name),
			})
		}
	}
	return diags
}

// messageAcceptsAnyLabel reports whether a message's field set is open:
// a wildcard header/body run absorbs arbitrary label:value lines, and a
// non-none body (e.g. XML) contributes fields invisible to the MDL.
func messageAcceptsAnyLabel(spec *mdl.Spec, def *mdl.MessageDef) bool {
	if def.Body != mdl.BodyNone {
		return true
	}
	for _, f := range spec.Header.Fields {
		if f.Wildcard {
			return true
		}
	}
	for _, f := range def.Fields {
		if f.Wildcard {
			return true
		}
	}
	return false
}

// messageLabels collects every field label addressable on a message:
// the shared header fields plus the message body fields, including
// repeat-group members.
func messageLabels(spec *mdl.Spec, def *mdl.MessageDef) map[string]bool {
	labels := map[string]bool{}
	var walk func([]*mdl.FieldDef)
	walk = func(fields []*mdl.FieldDef) {
		for _, f := range fields {
			labels[f.Label] = true
			if f.IsGroup() {
				walk(f.Group)
			}
		}
	}
	walk(spec.Header.Fields)
	walk(def.Fields)
	return labels
}

// checkFieldRef validates one translation FieldRef against the loaded
// specs: the message must exist, and the path's first labelled step
// must name a field the message can actually carry.
func checkFieldRef(sp map[string]*mdl.Spec, caseName, role string, ref translation.FieldRef) []Diagnostic {
	def, spec := findMessage(sp, ref.Message)
	if def == nil {
		return []Diagnostic{{
			Rule:     "translation-field",
			Severity: SevError,
			Model:    caseName,
			Message:  fmt.Sprintf("%s references message %q, which no loaded MDL defines", role, ref.Message),
		}}
	}
	if ref.Path == nil || messageAcceptsAnyLabel(spec, def) {
		return nil
	}
	for _, step := range ref.Path.Steps() {
		if step.Label == "" {
			continue
		}
		if !messageLabels(spec, def)[step.Label] {
			return []Diagnostic{{
				Rule:     "translation-field",
				Severity: SevError,
				Model:    caseName,
				Message: fmt.Sprintf("%s addresses field %q of message %q, but MDL %s defines no such field",
					role, step.Label, ref.Message, spec.Protocol),
			}}
		}
		// Only the first labelled step is checked: nested structured
		// fields (URL explosion) exist per-value, not per-schema.
		break
	}
	return nil
}

// ruleTranslationField checks that every assignment and λ action in
// every case addresses messages and fields the loaded MDLs define, and
// that every assignment targets a message the case composes.
// Load-time validation compiles the XPath expressions but resolves
// nothing; a dangling reference otherwise fails at apply time, dropping
// the session mid-bridge.
func ruleTranslationField(ctx *Context) []Diagnostic {
	sp := specs(ctx)
	var diags []Diagnostic
	for _, name := range ctx.Reg.MergedNames() {
		m, err := ctx.Reg.Merged(name)
		if err != nil {
			continue
		}
		if m.Logic != nil {
			for i, a := range m.Logic.Assignments {
				role := fmt.Sprintf("assignment %d target", i)
				diags = append(diags, checkFieldRef(sp, name, role, a.Target)...)
				if !slices.ContainsFunc(m.Equivalences, func(eq merge.Equivalence) bool { return eq.Output == a.Target.Message }) {
					diags = append(diags, Diagnostic{Rule: "translation-field", Severity: SevError, Model: name,
						Message: fmt.Sprintf("%s is message %q, which no equivalence outputs: the case never composes it", role, a.Target.Message)})
				}
				if a.Source != nil {
					role = fmt.Sprintf("assignment %d source", i)
					diags = append(diags, checkFieldRef(sp, name, role, *a.Source)...)
				}
			}
		}
		for _, d := range m.Deltas {
			for _, act := range d.Actions {
				for j, arg := range act.Args {
					role := fmt.Sprintf("λ %s arg %d on %s->%s", act.Name, j, d.From, d.To)
					diags = append(diags, checkFieldRef(sp, name, role, arg)...)
				}
			}
		}
	}
	return diags
}

// ruleShadowedMessage flags two messages of one protocol selected by
// the same (rule field, rule value) pair. The parser takes the first
// match in spec order, so the later message is unreachable on parse.
func ruleShadowedMessage(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	for _, p := range slices.Sorted(maps.Keys(specs(ctx))) {
		spec := specs(ctx)[p]
		first := map[string]string{}
		for _, m := range spec.Messages {
			key := m.Rule.Field + "\x00" + m.Rule.Value
			if prev, ok := first[key]; ok {
				diags = append(diags, Diagnostic{
					Rule:     "shadowed-message",
					Severity: SevError,
					Model:    p,
					Message: fmt.Sprintf("message %q is unreachable: rule %s=%s already selects %q (first match wins)",
						m.Name, m.Rule.Field, m.Rule.Value, prev),
				})
				continue
			}
			first[key] = m.Name
		}
	}
	return diags
}

// ruleRestatedConstant flags an assignment of the value the target
// message's MDL already fixes: a protocol's constant is said once, in
// its MDL. Lint-only: the assignment overrides the fixed value with
// itself, so the model loads and composes as before.
func ruleRestatedConstant(ctx *Context) []Diagnostic {
	sp := specs(ctx)
	var diags []Diagnostic
	for _, name := range ctx.Reg.MergedNames() {
		m, err := ctx.Reg.Merged(name)
		if err != nil || m.Logic == nil {
			continue
		}
		for i, a := range m.Logic.Assignments {
			def, spec := findMessage(sp, a.Target.Message)
			if def != nil && a.Const != nil && a.Func == "" && slices.Contains(def.Fixed, mdl.Rule{Field: firstLabel(a.Target.Path), Value: *a.Const}) {
				diags = append(diags, Diagnostic{Rule: "restated-constant", Severity: SevError, Model: name,
					Message: fmt.Sprintf("assignment %d sets %s.%s to %q, the value MDL %s already fixes", i, a.Target.Message, firstLabel(a.Target.Path), *a.Const, spec.Protocol)})
			}
		}
	}
	return diags
}

// ruleUnmatchableRule flags a fixed value, the rule included, that its
// integer field cannot carry. It loads fine, but as a rule it matches no
// payload, so the message is dead, and no composer can write it.
func ruleUnmatchableRule(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	sp := specs(ctx)
	for _, p := range slices.Sorted(maps.Keys(sp)) {
		for _, pl := range sp[p].Resolve(ctx.Reg.Types()).Plans {
			for _, e := range pl.Fixed {
				bits := 64
				if e.Def != nil && e.Def.SizeBits > 0 && e.Def.SizeBits < 64 {
					bits = e.Def.SizeBits
				}
				if n, err := strconv.ParseUint(e.Fixed.Text(), 10, 64); e.Kind == message.KindInt && (err != nil || n>>bits != 0) {
					diags = append(diags, Diagnostic{Rule: "unmatchable-rule", Severity: SevError, Model: p,
						Message: fmt.Sprintf("message %q fixes %s=%s, which does not fit the %d-bit field: it can never match or compose", pl.Def.Name, e.Label, e.Fixed.Text(), bits)})
				}
			}
		}
	}
	return diags
}

// ruleLossyRoundtrip flags field layouts the wire codec cannot carry
// through a parse⇄compose round trip: integer fields wider than the
// 64-bit value representation, and non-integer fields with a width
// that is not a whole number of bytes — the parser rejects the latter
// on every payload ("non-integer type with unaligned width").
func ruleLossyRoundtrip(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	sp := specs(ctx)
	for _, p := range slices.Sorted(maps.Keys(sp)) {
		spec := sp[p]
		if spec.Dialect != mdl.DialectBinary {
			continue
		}
		check := func(where string, fields []*mdl.FieldDef) {
			var walk func(fields []*mdl.FieldDef)
			walk = func(fields []*mdl.FieldDef) {
				for _, f := range fields {
					if f.IsGroup() {
						walk(f.Group)
						continue
					}
					kind := kindOf(ctx, spec, f.Label)
					fixedKind := kind == message.KindInt || kind == message.KindBool
					if f.SizeBits > 0 {
						if fixedKind && f.SizeBits > 64 {
							diags = append(diags, Diagnostic{
								Rule:     "lossy-roundtrip",
								Severity: SevError,
								Model:    p,
								Message: fmt.Sprintf("%s: field %q is %d bits wide, but integer values carry at most 64: the value cannot round-trip",
									where, f.Label, f.SizeBits),
							})
						}
						if !fixedKind && f.SizeBits%8 != 0 {
							diags = append(diags, Diagnostic{
								Rule:     "lossy-roundtrip",
								Severity: SevError,
								Model:    p,
								Message: fmt.Sprintf("%s: field %q has non-integer type and unaligned width %d bits: every parse fails at runtime",
									where, f.Label, f.SizeBits),
							})
						}
					}
					if f.SizeRef != "" && kindOf(ctx, spec, f.SizeRef) != message.KindInt {
						diags = append(diags, Diagnostic{
							Rule:     "lossy-roundtrip",
							Severity: SevError,
							Model:    p,
							Message: fmt.Sprintf("%s: field %q takes its length from %q, which is not integer-typed",
								where, f.Label, f.SizeRef),
						})
					}
				}
			}
			walk(fields)
		}
		check("header", spec.Header.Fields)
		for _, m := range spec.Messages {
			check("message "+m.Name, m.Fields)
		}
	}
	return diags
}

// entry is one (case, protocol) entry point on a color.
type entry struct {
	caseName string
	protocol string
	color    automata.Color
}

// ruleDiscriminatorCollision mirrors the dispatcher's rebind step:
// entry points of all cases are grouped by color key, and groups with
// more than one member are checked for classification collisions.
//
//   - Two cases entering on the same protocol and color is the
//     deliberate one-to-many configuration: the dispatcher counts the
//     ambiguity and deterministically picks the lexicographically first
//     case, so this reports as Info.
//   - Two different protocols on one color are checked with the
//     dispatcher's own classifier (see checkCrossProto).
func ruleDiscriminatorCollision(ctx *Context) []Diagnostic {
	byColor := map[string][]entry{}
	for _, name := range ctx.Reg.MergedNames() {
		m, err := ctx.Reg.Merged(name)
		if err != nil {
			continue
		}
		entries, err := m.EntryProtocols()
		if err != nil {
			continue // case-compile reports it
		}
		for proto, color := range entries {
			k := color.Key()
			byColor[k] = append(byColor[k], entry{caseName: name, protocol: proto, color: color})
		}
	}
	var diags []Diagnostic
	for _, k := range slices.Sorted(maps.Keys(byColor)) {
		group := byColor[k]
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool {
			if group[i].protocol != group[j].protocol {
				return group[i].protocol < group[j].protocol
			}
			return group[i].caseName < group[j].caseName
		})
		// Same-protocol overlap: runtime-ambiguous, deliberately so.
		byProto := map[string][]entry{}
		for _, e := range group {
			byProto[e.protocol] = append(byProto[e.protocol], e)
		}
		for _, proto := range slices.Sorted(maps.Keys(byProto)) {
			es := byProto[proto]
			if len(es) < 2 {
				continue
			}
			var names []string
			for _, e := range es {
				names = append(names, e.caseName)
			}
			diags = append(diags, Diagnostic{
				Rule:     "discriminator-collision",
				Severity: SevInfo,
				Model:    strings.Join(names, ", "),
				Message: fmt.Sprintf("cases share entry color %s on protocol %s; the dispatcher resolves the ambiguity to the lexicographically first case",
					es[0].color, proto),
			})
		}
		// Cross-protocol overlap: must be statically separable.
		protos := slices.Sorted(maps.Keys(byProto))
		for i := 0; i < len(protos); i++ {
			for j := i + 1; j < len(protos); j++ {
				e1, e2 := byProto[protos[i]][0], byProto[protos[j]][0]
				diags = append(diags, checkCrossProto(ctx, e1, e2)...)
			}
		}
	}
	return diags
}

// checkCrossProto asks whether a payload of one of two protocols
// entering on one color can be taken for the other's, with the
// evaluator the dispatcher runs: each definition of either protocol is
// composed empty — the composer writes its fixed values, the rule's
// among them — and handed to the other protocol's parser.Classify. A
// hit is an Error; a definition that does not compose leaves the
// question open (Warning); otherwise the sharing is reported as Info.
func checkCrossProto(ctx *Context, e1, e2 entry) []Diagnostic {
	c1, c2 := codecOf(ctx, e1), codecOf(ctx, e2)
	if c1 == nil || c2 == nil {
		return nil // case-compile reports it
	}
	diag := func(sev Severity, format string, args ...any) Diagnostic {
		return Diagnostic{Rule: "discriminator-collision", Severity: sev,
			Model: e1.caseName + ", " + e2.caseName, Message: fmt.Sprintf(format, args...)}
	}
	var diags []Diagnostic
	seen := map[[2]string]bool{}
	for _, dir := range [2][2]*engine.Codec{{c1, c2}, {c2, c1}} {
		from, to := dir[0], dir[1]
		for _, def := range from.Spec.Messages {
			wire, err := from.Composer.Compose(message.New(from.Spec.Protocol, def.Name))
			if err != nil {
				diags = append(diags, diag(SevWarning, "%s/%s does not compose empty (%v): whether %s takes it for its own on color %s is not decided",
					from.Spec.Protocol, def.Name, err, to.Spec.Protocol, e1.color))
				continue
			}
			name, ok := to.Parser.Classify(wire)
			a, b := from.Spec.Protocol+"/"+def.Name, to.Spec.Protocol+"/"+name
			if !ok || seen[[2]string{b, a}] {
				continue
			}
			seen[[2]string{a, b}] = true
			diags = append(diags, diag(SevError, "a payload on color %s classifies as both %s and %s: their discriminators coincide",
				e1.color, a, b))
		}
	}
	if len(diags) == 0 {
		diags = append(diags, diag(SevInfo, "protocols %s and %s share entry color %s; no definition of either classifies as the other's",
			e1.protocol, e2.protocol, e1.color))
	}
	return diags
}

// codecOf returns the codec a case compiled for an entry's protocol.
func codecOf(ctx *Context, e entry) *engine.Codec {
	c, err := ctx.Reg.Compiled(e.caseName)
	if err != nil {
		return nil
	}
	return c.Codecs[e.protocol]
}

// ruleTxID checks the txid color attribute: the model's assertion that
// the peer echoes a header field of the request in its reply. On the
// strength of it the engine lends one requester socket to session after
// session: it stamps an integer field with the lend's epoch, so no case
// may assign it, and leaves a String one to the cases, each of which must
// assign it from session input. A declaration the protocol cannot honour
// drops every reply as stale or lets one session read another's.
func ruleTxID(ctx *Context) []Diagnostic {
	var diags []Diagnostic
	bad := func(model, format string, args ...any) {
		diags = append(diags, Diagnostic{Rule: "txid", Severity: SevError, Model: model, Message: fmt.Sprintf(format, args...)})
	}
	// owned[automaton][message] is the txid field of that send and, when
	// it is a String, echoed[automaton][message] whether a case sends it.
	owned := map[*automata.Automaton]map[string]string{}
	echoed := map[*automata.Automaton]map[string]bool{}
	for _, n := range ctx.Reg.AutomatonNames() {
		a, err := ctx.Reg.Automaton(n)
		if err != nil {
			continue
		}
		owned[a], echoed[a] = map[string]string{}, map[string]bool{}
		for _, t := range a.Transitions {
			st, _ := a.StateByName(t.From)
			field, ok := st.Color.Get(automata.AttrTxID)
			if !ok || t.Action != automata.Send {
				continue
			}
			owned[a][t.Message] = field
			spec, err := ctx.Reg.Spec(a.Protocol)
			if err != nil {
				continue // unknown-message reports the missing MDL
			}
			tr, _ := st.Color.Get(automata.AttrTransport)
			fd, kind := spec.HeaderField(field), kindOf(ctx, spec, field)
			switch {
			case t.ReplyToOrigin:
				bad(n, "txid %q on the server-role send of %s: the engine stamps only requests it originates", field, t.Message)
			case tr != "" && tr != "udp":
				bad(n, "txid %q on a %s color: only datagram requester sockets are lent", field, tr)
			case !spec.InHeader(field):
				bad(n, "txid %q is not a header field of MDL %s, so neither %s nor its reply can carry it", field, a.Protocol, t.Message)
			case kind == message.KindString:
				echoed[a][t.Message] = false
			case kind != message.KindInt:
				bad(n, "txid field %q of MDL %s is neither integer- nor String-typed: it can carry neither the lend's epoch nor the question", field, a.Protocol)
			case fd != nil && fd.SizeBits < 16:
				bad(n, "txid field %q of MDL %s is %d bits wide, want at least 16", field, a.Protocol, fd.SizeBits)
			}
		}
	}
	for _, name := range ctx.Reg.MergedNames() {
		m, err := ctx.Reg.Merged(name)
		if err != nil || m.Logic == nil {
			continue
		}
		assigned := map[string]bool{}
		for i, asg := range m.Logic.Assignments {
			for _, a := range m.Automata {
				msg := asg.Target.Message
				field, ok := owned[a][msg]
				if !ok || asg.Target.Path == nil || firstLabel(asg.Target.Path) != field {
					continue
				}
				if _, echo := echoed[a][msg]; !echo {
					bad(name, "assignment %d targets %s.%s, the txid field of its color: the engine owns it and overwrites the value", i, msg, field)
				} else if asg.Const != nil {
					bad(name, "assignment %d sets %s.%s, the String txid of its color, to a constant: any late reply to the socket would match", i, msg, field)
				}
				assigned[msg] = true
			}
		}
		for _, a := range m.Automata {
			for _, msg := range slices.Sorted(maps.Keys(echoed[a])) {
				if echoed[a][msg] = true; !assigned[msg] {
					bad(name, "no assignment sets %s.%s, the String txid of its color, from session input: the engine does not stamp it", msg, owned[a][msg])
				}
			}
		}
	}
	for _, n := range ctx.Reg.AutomatonNames() {
		a, _ := ctx.Reg.Automaton(n)
		for _, msg := range slices.Sorted(maps.Keys(echoed[a])) {
			if !echoed[a][msg] {
				bad(n, "txid field %q of MDL %s is a String no case assigns from session input: the engine does not stamp it", owned[a][msg], a.Protocol)
			}
		}
	}
	return diags
}

// firstLabel is the top-level field an assignment through p writes: the
// label of its first labelled step.
func firstLabel(p *xpath.Path) string {
	for _, step := range p.Steps() {
		if step.Label != "" {
			return step.Label
		}
	}
	return ""
}

// ---- helpers ----

// kindOf resolves a field label's value kind through the type registry;
// unknown type names count as string (TypeOf's default).
func kindOf(ctx *Context, spec *mdl.Spec, label string) message.Kind {
	td := spec.TypeOf(label)
	m, err := ctx.Reg.Types().Lookup(td.TypeName)
	if err != nil {
		return message.KindString
	}
	return m.Kind()
}
