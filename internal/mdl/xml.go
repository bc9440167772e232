package mdl

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ParseXML reads an MDL specification from XML. Field labels are
// element names (as in the paper's Figs. 7 and 11), so decoding walks
// the token stream rather than unmarshalling into fixed structs.
//
// Document shape:
//
//	<MDL protocol="SLP" dialect="binary">
//	  <Types>
//	    <Version>Integer</Version>
//	    <URLLength>Integer[f-length(URLEntry)]</URLLength>
//	  </Types>
//	  <Header type="SLP">
//	    <Version>8</Version>
//	    <LangTag>LangTagLen</LangTag>
//	  </Header>
//	  <Message type="SLPSrvRequest" mandatory="SRVType">
//	    <Rule>FunctionID=1</Rule>
//	    <Fixed>Version=2</Fixed>
//	    <SRVTypeLength>16</SRVTypeLength>
//	    <SRVType>SRVTypeLength</SRVType>
//	    <Repeat label="Entries" count="URLCount"> ... </Repeat>
//	  </Message>
//	</MDL>
func ParseXML(r io.Reader) (*Spec, error) {
	dec := xml.NewDecoder(r)
	spec := &Spec{Types: map[string]TypeDef{}}
	root, err := nextStart(dec)
	if err != nil {
		return nil, fmt.Errorf("mdl: reading root: %w", err)
	}
	if root.Name.Local != "MDL" {
		return nil, fmt.Errorf("mdl: root element is %q, want MDL", root.Name.Local)
	}
	for _, a := range root.Attr {
		switch a.Name.Local {
		case "protocol":
			spec.Protocol = a.Value
		case "dialect":
			d, err := ParseDialect(a.Value)
			if err != nil {
				return nil, err
			}
			spec.Dialect = d
		}
	}
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mdl: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch start.Name.Local {
		case "Types":
			if err := parseTypes(dec, spec); err != nil {
				return nil, err
			}
		case "Header":
			h, err := parseHeader(dec, start, spec)
			if err != nil {
				return nil, err
			}
			spec.Header = h
		case "Message":
			m, err := parseMessage(dec, start, spec)
			if err != nil {
				return nil, err
			}
			spec.Messages = append(spec.Messages, m)
		default:
			if err := dec.Skip(); err != nil {
				return nil, fmt.Errorf("mdl: skipping %q: %w", start.Name.Local, err)
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(s string) (*Spec, error) {
	return ParseXML(strings.NewReader(s))
}

func nextStart(dec *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se, nil
		}
	}
}

// elementText collects the character data of the current element until
// its end tag.
func elementText(dec *xml.Decoder) (string, error) {
	var sb strings.Builder
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.CharData:
			if depth == 0 {
				sb.Write(t)
			}
		case xml.StartElement:
			depth++
		case xml.EndElement:
			if depth == 0 {
				return sb.String(), nil
			}
			depth--
		}
	}
}

func parseTypes(dec *xml.Decoder, spec *Spec) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("mdl: in Types: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			content, err := elementText(dec)
			if err != nil {
				return fmt.Errorf("mdl: type %q: %w", t.Name.Local, err)
			}
			td, err := ParseTypeRef(t.Name.Local, content)
			if err != nil {
				return err
			}
			if _, dup := spec.Types[td.Label]; dup {
				return fmt.Errorf("mdl: duplicate type entry %q", td.Label)
			}
			spec.Types[td.Label] = td
		case xml.EndElement:
			return nil
		}
	}
}

func parseHeader(dec *xml.Decoder, start xml.StartElement, spec *Spec) (*HeaderDef, error) {
	h := &HeaderDef{}
	for _, a := range start.Attr {
		if a.Name.Local == "type" {
			h.TypeName = a.Value
		}
	}
	fields, err := parseFieldList(dec, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("mdl: header: %w", err)
	}
	h.Fields = fields
	return h, nil
}

func parseMessage(dec *xml.Decoder, start xml.StartElement, spec *Spec) (*MessageDef, error) {
	m := &MessageDef{}
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "type":
			m.Name = a.Value
		case "mandatory":
			for _, l := range strings.Split(a.Value, ",") {
				if l = strings.TrimSpace(l); l != "" {
					m.Mandatory = append(m.Mandatory, l)
				}
			}
		case "body":
			bk, err := ParseBodyKind(a.Value)
			if err != nil {
				return nil, err
			}
			m.Body = bk
		}
	}
	fields, err := parseFieldList(dec, spec, m)
	if err != nil {
		return nil, fmt.Errorf("mdl: message %q: %w", m.Name, err)
	}
	m.Fields = fields
	return m, nil
}

// parseFieldList reads field entries until the enclosing end element.
// When msg is non-nil, Rule and Fixed entries are routed to it.
func parseFieldList(dec *xml.Decoder, spec *Spec, msg *MessageDef) ([]*FieldDef, error) {
	var fields []*FieldDef
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			name := t.Name.Local
			if name == "Rule" || name == "Fixed" {
				content, err := elementText(dec)
				if err != nil {
					return nil, err
				}
				if msg == nil {
					return nil, fmt.Errorf("%s outside message", name)
				}
				rule, err := ParseRule(content)
				if err != nil {
					return nil, err
				}
				if name == "Rule" {
					msg.Rule = rule
				}
				msg.Fixed = append(msg.Fixed, rule)
				continue
			}
			if name == "Repeat" {
				g := &FieldDef{}
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "label":
						g.Label = a.Value
					case "count":
						g.CountRef = a.Value
					}
				}
				inner, err := parseFieldList(dec, spec, nil)
				if err != nil {
					return nil, err
				}
				if inner == nil {
					inner = []*FieldDef{}
				}
				g.Group = inner
				fields = append(fields, g)
				continue
			}
			content, err := elementText(dec)
			if err != nil {
				return nil, err
			}
			var f *FieldDef
			switch spec.Dialect {
			case DialectText:
				if name == "Fields" {
					delim, inner, err := ParseTextFieldSpec(content)
					if err != nil {
						return nil, err
					}
					f = &FieldDef{Label: name, Delim: delim, InnerSplit: inner, Wildcard: true}
				} else {
					delim, inner, err := ParseTextFieldSpec(content)
					if err != nil {
						return nil, err
					}
					if inner != 0 {
						return nil, fmt.Errorf("field %q: inner split only valid on Fields", name)
					}
					f = &FieldDef{Label: name, Delim: delim}
				}
			default:
				f, err = ParseBinaryFieldSpec(name, content)
				if err != nil {
					return nil, err
				}
			}
			fields = append(fields, f)
		case xml.EndElement:
			return fields, nil
		}
	}
}
