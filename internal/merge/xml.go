package merge

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"starlink/internal/automata"
	"starlink/internal/translation"
	"starlink/internal/xpath"
)

// XML form of a merged automaton:
//
//	<MergedAutomaton name="slp-to-upnp" initiator="SLP">
//	  <AutomatonRef protocol="SLP"/>
//	  <AutomatonRef protocol="SSDP"/>
//	  <AutomatonRef protocol="HTTP"/>
//	  <Equivalence output="SSDPMSearch" inputs="SLPSrvRequest"/>
//	  <Delta from="SLP:s1" to="SSDP:s0"/>
//	  <Delta from="SSDP:s2" to="HTTP:s0">
//	    <Action name="setHost">
//	      <Arg message="SSDPResponse" xpath="..."/>
//	      <Arg message="SSDPResponse" xpath="..."/>
//	    </Action>
//	  </Delta>
//	  <Delta from="HTTP:s2" to="SLP:s1"/>
//	  <TranslationLogic> ... Fig. 8 assignments ... </TranslationLogic>
//	</MergedAutomaton>
//
// AutomatonRef entries are resolved against a resolver (the model
// registry) so colored automata are modelled once per protocol and
// reused across merges, matching the paper's §V-C reuse claim.
type xmlMerged struct {
	XMLName       xml.Name             `xml:"MergedAutomaton"`
	Name          string               `xml:"name,attr"`
	Initiator     string               `xml:"initiator,attr"`
	AutomatonRefs []xmlAutomRef        `xml:"AutomatonRef"`
	Equivalences  []xmlEquivalence     `xml:"Equivalence"`
	Deltas        []xmlDelta           `xml:"Delta"`
	Logic         translation.XMLLogic `xml:"TranslationLogic"`
}

type xmlAutomRef struct {
	Protocol string `xml:"protocol,attr"`
	// Name optionally selects a role-specific automaton model
	// (e.g. "slp-client" vs "slp-server" — the same protocol behaves
	// differently depending on which side of it the bridge plays).
	// Defaults to the protocol name.
	Name string `xml:"name,attr"`
}

type xmlEquivalence struct {
	Output string `xml:"output,attr"`
	Inputs string `xml:"inputs,attr"`
}

type xmlDelta struct {
	From    string      `xml:"from,attr"`
	To      string      `xml:"to,attr"`
	Actions []xmlAction `xml:"Action"`
}

type xmlAction struct {
	Name string   `xml:"name,attr"`
	Args []xmlArg `xml:"Arg"`
}

type xmlArg struct {
	Message string `xml:"message,attr"`
	Xpath   string `xml:"xpath,attr"`
}

// Resolver supplies colored automata by protocol name.
type Resolver interface {
	AutomatonFor(protocol string) (*automata.Automaton, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(protocol string) (*automata.Automaton, error)

// AutomatonFor implements Resolver.
func (f ResolverFunc) AutomatonFor(protocol string) (*automata.Automaton, error) {
	return f(protocol)
}

// ParseXML loads a merged automaton, resolving member automata through
// the resolver, and validates the merge constraints.
func ParseXML(r io.Reader, res Resolver) (*Merged, error) {
	var x xmlMerged
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	m := &Merged{Name: x.Name, Initiator: x.Initiator}
	for _, ref := range x.AutomatonRefs {
		key := ref.Name
		if key == "" {
			key = ref.Protocol
		}
		a, err := res.AutomatonFor(key)
		if err != nil {
			return nil, fmt.Errorf("merge: %s: %w", x.Name, err)
		}
		if ref.Protocol != "" && a.Protocol != ref.Protocol {
			return nil, fmt.Errorf("merge: %s: automaton %q is for protocol %q, ref says %q",
				x.Name, key, a.Protocol, ref.Protocol)
		}
		m.Automata = append(m.Automata, a)
	}
	for _, e := range x.Equivalences {
		eq := Equivalence{Output: e.Output}
		for _, in := range strings.Split(e.Inputs, ",") {
			if in = strings.TrimSpace(in); in != "" {
				eq.Inputs = append(eq.Inputs, in)
			}
		}
		m.Equivalences = append(m.Equivalences, eq)
	}
	for _, d := range x.Deltas {
		from, err := ParseStateRef(d.From)
		if err != nil {
			return nil, fmt.Errorf("merge: %s: %w", x.Name, err)
		}
		to, err := ParseStateRef(d.To)
		if err != nil {
			return nil, fmt.Errorf("merge: %s: %w", x.Name, err)
		}
		delta := &Delta{From: from, To: to}
		for _, a := range d.Actions {
			act := &translation.Action{Name: a.Name}
			for _, arg := range a.Args {
				p, err := xpath.Compile(strings.TrimSpace(arg.Xpath))
				if err != nil {
					return nil, fmt.Errorf("merge: %s: δ %s->%s: %w", x.Name, d.From, d.To, err)
				}
				act.Args = append(act.Args, translation.FieldRef{Message: arg.Message, Path: p})
			}
			delta.Actions = append(delta.Actions, act)
		}
		m.Deltas = append(m.Deltas, delta)
	}
	logic, err := translation.LogicFromXML(x.Logic)
	if err != nil {
		return nil, fmt.Errorf("merge: %s: %w", x.Name, err)
	}
	m.Logic = logic
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string, res Resolver) (*Merged, error) {
	return ParseXML(strings.NewReader(s), res)
}
