// Package translation implements Starlink's translation logic
// (paper §III-D and Fig. 8). Translation logic describes how message
// content moves between semantically equivalent messages:
//
//   - assignments (eq. 5) copy a field of a stored message into a field
//     of an outgoing message: s1.m1.fa = s2.m2.fb;
//   - translation functions T (eq. 6) convert content whose types do
//     not match directly: s1.m1.fa = T(s2.m2.fb);
//   - constants parameterise outgoing messages with protocol-fixed
//     content (an M-SEARCH's MAN header) or bridge environment values
//     ("${bridge.host}") — the mechanism behind λ actions such as
//     selfLocation that must name the bridge itself;
//   - λ actions (the {λ} of δ-transitions) perform network-layer
//     transformations, e.g. setHost redirects the next connection to an
//     address carried inside a previously received message (Fig. 5,
//     line 11).
package translation

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"starlink/internal/message"
	"starlink/internal/xpath"
)

// FieldRef addresses one field of a named abstract message via an XPath
// expression (the on-disk form used by Fig. 8).
type FieldRef struct {
	// Message is the abstract message name, e.g. "SSDPMSearch".
	Message string
	// Path addresses the field inside the message.
	Path *xpath.Path
}

// String renders msg@path for diagnostics.
func (r FieldRef) String() string {
	if r.Path == nil {
		return r.Message + "@<nil>"
	}
	return r.Message + "@" + r.Path.String()
}

// Assignment is one translation step: Target.field = [Func](source).
// Exactly one of Source / Const is set.
type Assignment struct {
	Target FieldRef
	Source *FieldRef
	// Const is a literal value; "${var}" references are expanded
	// against the engine's environment at apply time.
	Const *string
	// Func names a translation function T applied to the source value.
	Func string
}

// Validate checks structural sanity at model-load time.
func (a *Assignment) Validate(funcs *FuncRegistry) error {
	if a.Target.Message == "" || a.Target.Path == nil {
		return fmt.Errorf("translation: assignment without target: %v", a.Target)
	}
	if (a.Source == nil) == (a.Const == nil) {
		return fmt.Errorf("translation: assignment to %v needs exactly one of source/const", a.Target)
	}
	if a.Source != nil && (a.Source.Message == "" || a.Source.Path == nil) {
		return fmt.Errorf("translation: assignment to %v has incomplete source", a.Target)
	}
	if a.Func != "" {
		if _, err := funcs.Lookup(a.Func); err != nil {
			return err
		}
	}
	return nil
}

// Logic is an ordered list of assignments forming the translation logic
// of one merged automaton.
type Logic struct {
	Assignments []*Assignment

	// compiled steady-state program: assignments grouped by target
	// message, with literal constants pre-built as Values. Built once
	// (Precompile / first Apply); Assignments must not be mutated after.
	compileOnce sync.Once
	byTarget    map[string][]compiledAssign
}

// compiledAssign is one assignment with its apply-time constants
// resolved ahead of time.
type compiledAssign struct {
	a *Assignment
	// constVal is the pre-built value for literal constants (no ${}
	// references); constLit marks it valid.
	constVal message.Value
	constLit bool
}

// Precompile builds the per-target assignment index so steady-state
// Apply calls do no scanning, no path parsing and no constant
// re-expansion. Called by the case compiler (merge.Compile); safe and
// cheap to call repeatedly.
func (l *Logic) Precompile() {
	l.compileOnce.Do(func() {
		byTarget := make(map[string][]compiledAssign)
		for _, a := range l.Assignments {
			ca := compiledAssign{a: a}
			if a.Const != nil && !strings.Contains(*a.Const, "${") {
				ca.constVal = message.Str(*a.Const)
				ca.constLit = true
			}
			byTarget[a.Target.Message] = append(byTarget[a.Target.Message], ca)
		}
		l.byTarget = byTarget
	})
}

// ForTarget returns the assignments whose target is the named message.
func (l *Logic) ForTarget(msgName string) []*Assignment {
	var out []*Assignment
	for _, a := range l.Assignments {
		if a.Target.Message == msgName {
			out = append(out, a)
		}
	}
	return out
}

// Validate validates every assignment.
func (l *Logic) Validate(funcs *FuncRegistry) error {
	for _, a := range l.Assignments {
		if err := a.Validate(funcs); err != nil {
			return err
		}
	}
	return nil
}

// Env supplies apply-time context: stored messages of the session and
// bridge environment variables.
type Env struct {
	// Lookup returns the most recent stored instance of a message by
	// abstract name, or nil.
	Lookup func(msgName string) *message.Message
	// Vars expands ${name} references in constants, e.g. bridge.host.
	Vars map[string]string
}

// Apply runs every assignment targeting target.Name, mutating target.
// Missing source *messages* are errors (the automaton should have
// stored them); missing source *fields* are errors too, surfacing model
// bugs rather than silently composing empty messages.
func (l *Logic) Apply(target *message.Message, env Env, funcs *FuncRegistry) error {
	l.Precompile()
	for _, ca := range l.byTarget[target.Name] {
		if err := applyOne(ca, target, env, funcs); err != nil {
			return err
		}
	}
	return nil
}

func applyOne(ca compiledAssign, target *message.Message, env Env, funcs *FuncRegistry) error {
	a := ca.a
	var v message.Value
	switch {
	case ca.constLit:
		v = ca.constVal
	case a.Const != nil:
		v = message.Str(expandVars(*a.Const, env.Vars))
	default:
		src := env.Lookup(a.Source.Message)
		if src == nil {
			return fmt.Errorf("translation: %v: source message %q not stored", a.Target, a.Source.Message)
		}
		got, err := a.Source.Path.Eval(src)
		if err != nil {
			return fmt.Errorf("translation: %v: %w", a.Target, err)
		}
		v = got
	}
	if a.Func != "" {
		fn, err := funcs.Lookup(a.Func)
		if err != nil {
			return err
		}
		out, err := fn(v)
		if err != nil {
			return fmt.Errorf("translation: %v: T %q: %w", a.Target, a.Func, err)
		}
		v = out
	}
	if err := a.Target.Path.Set(target, v); err != nil {
		return fmt.Errorf("translation: %v: %w", a.Target, err)
	}
	return nil
}

// expandVars substitutes ${name} references; unknown names expand to
// the empty string so model typos surface as visible blanks in tests.
func expandVars(s string, vars map[string]string) string {
	if !strings.Contains(s, "${") {
		return s
	}
	var sb strings.Builder
	for {
		i := strings.Index(s, "${")
		if i < 0 {
			sb.WriteString(s)
			return sb.String()
		}
		sb.WriteString(s[:i])
		rest := s[i+2:]
		j := strings.IndexByte(rest, '}')
		if j < 0 {
			sb.WriteString(s[i:])
			return sb.String()
		}
		sb.WriteString(vars[rest[:j]])
		s = rest[j+1:]
	}
}

// Func is a translation function T (paper eq. 6): it converts a value
// whose content is semantically equivalent but not directly assignable.
type Func func(message.Value) (message.Value, error)

// FuncRegistry maps T names to implementations.
type FuncRegistry struct {
	byName map[string]Func
}

// NewFuncRegistry returns a registry preloaded with the built-in
// translation functions.
func NewFuncRegistry() *FuncRegistry {
	r := &FuncRegistry{byName: make(map[string]Func)}
	r.MustRegister("identity", func(v message.Value) (message.Value, error) { return v, nil })
	r.MustRegister("to-string", toString)
	r.MustRegister("to-int", toInt)
	r.MustRegister("trim", trim)
	r.MustRegister("service-url", serviceURL)
	// Discovery-domain type-name translations (paper eq. 6): the same
	// logical service type is written "service:printer" in SLP,
	// "urn:printer" in UPnP/SSDP, and "printer.local" in DNS-SD.
	r.MustRegister("service-type-to-urn", prefixSwap("service:", "urn:"))
	r.MustRegister("urn-to-service-type", prefixSwap("urn:", "service:"))
	r.MustRegister("service-type-to-dns", toDNSName("service:"))
	r.MustRegister("dns-to-service-type", fromDNSName("service:"))
	r.MustRegister("urn-to-dns", toDNSName("urn:"))
	r.MustRegister("dns-to-urn", fromDNSName("urn:"))
	r.MustRegister("urlbase-xml", urlbaseXML)
	return r
}

// prefixSwap returns a T replacing one scheme prefix with another.
func prefixSwap(from, to string) Func {
	return func(v message.Value) (message.Value, error) {
		s, ok := v.AsString()
		if !ok {
			return message.Value{}, fmt.Errorf("prefix swap: value is %v", v.Kind())
		}
		if rest, found := strings.CutPrefix(s, from); found {
			return message.Str(to + rest), nil
		}
		return message.Str(s), nil
	}
}

// toDNSName maps "service:printer" style names to "printer.local".
func toDNSName(prefix string) Func {
	return func(v message.Value) (message.Value, error) {
		s, ok := v.AsString()
		if !ok {
			return message.Value{}, fmt.Errorf("dns name: value is %v", v.Kind())
		}
		s = strings.TrimPrefix(s, prefix)
		if s == "" {
			return message.Value{}, fmt.Errorf("dns name: empty service type")
		}
		return message.Str(s + ".local"), nil
	}
}

// fromDNSName maps "printer.local" back to "service:printer" style.
func fromDNSName(prefix string) Func {
	return func(v message.Value) (message.Value, error) {
		s, ok := v.AsString()
		if !ok {
			return message.Value{}, fmt.Errorf("dns name: value is %v", v.Kind())
		}
		s = strings.TrimSuffix(s, ".local")
		if s == "" {
			return message.Value{}, fmt.Errorf("dns name: empty name")
		}
		return message.Str(prefix + s), nil
	}
}

// urlbaseXML wraps a service URL in the minimal UPnP description
// document the bridge serves in the reverse-UPnP cases.
func urlbaseXML(v message.Value) (message.Value, error) {
	s, ok := v.AsString()
	if !ok {
		return message.Value{}, fmt.Errorf("urlbase-xml: value is %v", v.Kind())
	}
	const head, tail = "<root><URLBase>", "</URLBase></root>"
	n := len(head) + len(s) + len(tail)
	for i := 0; i < len(s); i++ {
		if e := xmlEntity(s[i]); e != "" {
			n += len(e) - 1
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(head)
	last := 0
	for i := 0; i < len(s); i++ {
		if e := xmlEntity(s[i]); e != "" {
			b.WriteString(s[last:i])
			b.WriteString(e)
			last = i + 1
		}
	}
	b.WriteString(s[last:])
	b.WriteString(tail)
	return message.Str(b.String()), nil
}

// xmlEntity is the entity urlbaseXML writes for &, < and >, "" for any
// other byte.
func xmlEntity(c byte) string {
	switch c {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	}
	return ""
}

// Register adds a translation function.
func (r *FuncRegistry) Register(name string, fn Func) error {
	if _, exists := r.byName[name]; exists {
		return fmt.Errorf("translation: T %q already registered", name)
	}
	r.byName[name] = fn
	return nil
}

// MustRegister is Register, panicking on error; for package setup only.
func (r *FuncRegistry) MustRegister(name string, fn Func) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// Lookup returns the named translation function.
func (r *FuncRegistry) Lookup(name string) (Func, error) {
	fn, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("translation: unknown T %q", name)
	}
	return fn, nil
}

func toString(v message.Value) (message.Value, error) {
	return message.Str(v.Text()), nil
}

func toInt(v message.Value) (message.Value, error) {
	if i, ok := v.AsInt(); ok {
		return message.Int(i), nil
	}
	s, ok := v.AsString()
	if !ok {
		return message.Value{}, fmt.Errorf("cannot convert %v to int", v.Kind())
	}
	i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return message.Value{}, fmt.Errorf("cannot convert %q to int", s)
	}
	return message.Int(i), nil
}

func trim(v message.Value) (message.Value, error) {
	s, ok := v.AsString()
	if !ok {
		return v, nil
	}
	return message.Str(strings.TrimSpace(s)), nil
}

// serviceURL normalises discovery URLs: DNS-SD RDATA and UPnP URLBase
// values become SLP-style service URLs unchanged if already absolute,
// otherwise prefixed with "service:".
func serviceURL(v message.Value) (message.Value, error) {
	s, ok := v.AsString()
	if !ok {
		return message.Value{}, fmt.Errorf("service-url: value is %v", v.Kind())
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return message.Value{}, fmt.Errorf("service-url: empty value")
	}
	if strings.Contains(s, "://") || strings.HasPrefix(s, "service:") {
		return message.Str(s), nil
	}
	return message.Str("service:" + s), nil
}

// Action is a λ network action attached to a δ-transition. The network
// engine interprets actions by name; setHost is the paper's example
// (Fig. 5 line 11: redirect the next TCP connection to the host/port
// carried in a received message).
type Action struct {
	Name string
	// Args reference fields of stored messages, in the action's
	// positional order (setHost: host, port).
	Args []FieldRef
}

// Known λ action names.
const (
	ActionSetHost = "setHost"
)

// Validate checks the action is well-formed.
func (a *Action) Validate() error {
	switch a.Name {
	case ActionSetHost:
		if len(a.Args) != 2 {
			return fmt.Errorf("translation: setHost wants 2 args (host, port), got %d", len(a.Args))
		}
	default:
		return fmt.Errorf("translation: unknown λ action %q", a.Name)
	}
	for _, arg := range a.Args {
		if arg.Message == "" || arg.Path == nil {
			return fmt.Errorf("translation: λ %s has incomplete arg %v", a.Name, arg)
		}
	}
	return nil
}

// Resolve evaluates the action's arguments against stored messages,
// appending them to dst, the caller's scratch.
func (a *Action) Resolve(dst []message.Value, lookup func(string) *message.Message) ([]message.Value, error) {
	out := dst
	for _, arg := range a.Args {
		src := lookup(arg.Message)
		if src == nil {
			return nil, fmt.Errorf("translation: λ %s: message %q not stored", a.Name, arg.Message)
		}
		v, err := arg.Path.Eval(src)
		if err != nil {
			return nil, fmt.Errorf("translation: λ %s: %w", a.Name, err)
		}
		out = append(out, v)
	}
	return out, nil
}
