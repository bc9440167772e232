// Package xpath evaluates the XPath subset Starlink's translation logic
// uses to address fields inside abstract messages (paper Fig. 8):
//
//	/field/primitiveField[label='ST']/value
//	/field/structuredField[label='LOCATION']/primitiveField[label='port']/value
//
// The abstract message object "conforms to an XML schema of the abstract
// message representation", allowing XPath expressions to read and write
// field values (§IV-A). This package implements exactly the grammar the
// models need: a /field root step, primitiveField/structuredField steps
// with a [label='...'] predicate, and a trailing /value step.
package xpath

import (
	"fmt"
	"strings"

	"starlink/internal/message"
)

// Step is one component of a parsed path.
type Step struct {
	// Axis is "field", "primitiveField", "structuredField" or "value".
	Axis string
	// Label is the [label='X'] predicate value, empty if absent.
	Label string
}

// Compiled is a compiled XPath expression. Compiling happens once at
// model-load / case-compile time; Eval/Get/Set on the steady-state
// bridge path do no parsing and no allocation (on success).
type Compiled struct {
	raw   string
	steps []Step
}

// Path is the historical name of Compiled, kept as an alias.
type Path = Compiled

// String returns the original expression.
func (p *Path) String() string { return p.raw }

// Steps returns a copy of the compiled step sequence. Static model
// tooling (mdlc lint) uses it to check that a path's field labels
// exist in the message the path is evaluated against.
func (p *Path) Steps() []Step { return append([]Step(nil), p.steps...) }

// Compile parses an expression. It fails on any construct outside the
// supported subset so model errors surface at load time, not mid-bridge.
func Compile(expr string) (*Compiled, error) {
	raw := expr
	expr = strings.TrimSpace(expr)
	if !strings.HasPrefix(expr, "/") {
		return nil, fmt.Errorf("xpath: %q must be absolute", raw)
	}
	parts := strings.Split(expr[1:], "/")
	if len(parts) == 0 {
		return nil, fmt.Errorf("xpath: %q is empty", raw)
	}
	p := &Compiled{raw: raw}
	for i, part := range parts {
		step, err := parseStep(part)
		if err != nil {
			return nil, fmt.Errorf("xpath: %q: %w", raw, err)
		}
		switch step.Axis {
		case "field":
			if i != 0 {
				return nil, fmt.Errorf("xpath: %q: field step must be first", raw)
			}
		case "value":
			if i != len(parts)-1 {
				return nil, fmt.Errorf("xpath: %q: value step must be last", raw)
			}
			if step.Label != "" {
				return nil, fmt.Errorf("xpath: %q: value step takes no predicate", raw)
			}
		case "primitiveField", "structuredField":
			if step.Label == "" {
				return nil, fmt.Errorf("xpath: %q: %s needs a [label='...'] predicate", raw, step.Axis)
			}
		default:
			return nil, fmt.Errorf("xpath: %q: unsupported step %q", raw, step.Axis)
		}
		p.steps = append(p.steps, step)
	}
	if len(p.steps) < 2 || p.steps[0].Axis != "field" {
		return nil, fmt.Errorf("xpath: %q must start with /field", raw)
	}
	return p, nil
}

// MustCompile is Compile, panicking on error; for tests and embedded
// model literals only.
func MustCompile(expr string) *Path {
	p, err := Compile(expr)
	if err != nil {
		panic(err)
	}
	return p
}

func parseStep(s string) (Step, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Step{}, fmt.Errorf("empty step")
	}
	open := strings.IndexByte(s, '[')
	if open < 0 {
		return Step{Axis: s}, nil
	}
	if !strings.HasSuffix(s, "]") {
		return Step{}, fmt.Errorf("unterminated predicate in %q", s)
	}
	axis := s[:open]
	pred := s[open+1 : len(s)-1]
	const prefix = "label="
	if !strings.HasPrefix(pred, prefix) {
		return Step{}, fmt.Errorf("unsupported predicate %q", pred)
	}
	val := pred[len(prefix):]
	if len(val) < 2 || (val[0] != '\'' && val[0] != '"') || val[len(val)-1] != val[0] {
		return Step{}, fmt.Errorf("predicate value %q must be quoted", val)
	}
	return Step{Axis: axis, Label: val[1 : len(val)-1]}, nil
}

// SelectField resolves the path down to the field it addresses (the
// step before any trailing /value).
func (p *Path) SelectField(msg *message.Message) (*message.Field, error) {
	var cur *message.Field
	for _, step := range p.steps {
		switch step.Axis {
		case "field":
			// Root: selection context is the message's field list.
			cur = nil
		case "value":
			if cur == nil {
				return nil, fmt.Errorf("xpath: %q: value step with no field selected", p.raw)
			}
			return cur, nil
		case "primitiveField", "structuredField":
			var next *message.Field
			if cur == nil {
				if f, ok := msg.Field(step.Label); ok {
					next = f
				}
			} else {
				if f, ok := cur.Child(step.Label); ok {
					next = f
				}
			}
			if next == nil {
				return nil, fmt.Errorf("xpath: %q: no field labelled %q in %s", p.raw, step.Label, msg.Name)
			}
			if step.Axis == "structuredField" && !next.IsStructured() {
				return nil, fmt.Errorf("xpath: %q: field %q is not structured", p.raw, step.Label)
			}
			cur = next
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("xpath: %q selects no field", p.raw)
	}
	return cur, nil
}

// Get reads the value the path addresses.
func (p *Path) Get(msg *message.Message) (message.Value, error) {
	f, err := p.SelectField(msg)
	if err != nil {
		return message.Value{}, err
	}
	return f.Value, nil
}

// Eval reads the value the compiled path addresses — the steady-state
// entry point: zero allocations on the success path.
func (p *Compiled) Eval(msg *message.Message) (message.Value, error) { return p.Get(msg) }

// Set writes a value at the path, creating intermediate fields — msg's
// own — as needed so translation targets need not pre-exist in the
// outgoing message template.
func (p *Path) Set(msg *message.Message, v message.Value) error {
	var cur *message.Field
	for _, step := range p.steps {
		switch step.Axis {
		case "field":
			cur = nil
		case "value":
			if cur == nil {
				return fmt.Errorf("xpath: %q: value step with no field selected", p.raw)
			}
			cur.Value = v
			return nil
		case "primitiveField", "structuredField":
			var next *message.Field
			if cur == nil {
				if f, ok := msg.Field(step.Label); ok {
					next = f
				} else {
					next = msg.NewField(step.Label, message.Value{})
					msg.Add(next)
				}
			} else {
				if f, ok := cur.Child(step.Label); ok {
					next = f
				} else {
					next = msg.NewField(step.Label, message.Value{})
					if cur.Children == nil {
						cur.Children = []*message.Field{}
					}
					cur.Children = append(cur.Children, next)
				}
			}
			if step.Axis == "structuredField" && next.Children == nil {
				next.Children = []*message.Field{}
			}
			cur = next
		}
	}
	if cur == nil {
		return fmt.Errorf("xpath: %q selects no field", p.raw)
	}
	cur.Value = v
	return nil
}

// FieldPath is a convenience constructor building the canonical
// expression for a dotted field path ("LOCATION.port" becomes
// /field/structuredField[label='LOCATION']/primitiveField[label='port']/value).
// The last component is primitive; all leading components structured.
func FieldPath(dotted string) *Path {
	parts := strings.Split(dotted, ".")
	var sb strings.Builder
	sb.WriteString("/field")
	for i, part := range parts {
		axis := "structuredField"
		if i == len(parts)-1 {
			axis = "primitiveField"
		}
		fmt.Fprintf(&sb, "/%s[label='%s']", axis, part)
	}
	sb.WriteString("/value")
	return MustCompile(sb.String())
}
