package translation

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"starlink/internal/xpath"
)

// XML representation of translation logic, the Fig. 8 format:
//
//	<TranslationLogic>
//	  <Assignment function="service-url">
//	    <Field>
//	      <Message>SSDPMSearch</Message>
//	      <Xpath>/field/primitiveField[label='ST']/value</Xpath>
//	    </Field>
//	    <Field>
//	      <Message>SLPSrvRequest</Message>
//	      <Xpath>/field/primitiveField[label='SRVType']/value</Xpath>
//	    </Field>
//	  </Assignment>
//	  <Assignment>
//	    <Field>...</Field>
//	    <Value>HTTP/1.1</Value>
//	  </Assignment>
//	</TranslationLogic>
//
// The first <Field> is the assignment target, the second the source
// (paper §IV-B: "the engine reads the value from the second field ...
// and then writes the content to the abstract message whose field is
// pointed to by the first field node").
//
// XMLLogic is exported so a document that embeds translation logic (a
// merged automaton) decodes it in its own pass and hands the result to
// LogicFromXML, instead of re-parsing the element's text.
type XMLLogic struct {
	XMLName     xml.Name        `xml:"TranslationLogic"`
	Assignments []xmlAssignment `xml:"Assignment"`
}

type xmlAssignment struct {
	Function string     `xml:"function,attr"`
	Fields   []xmlField `xml:"Field"`
	Value    *string    `xml:"Value"`
}

type xmlField struct {
	Message string `xml:"Message"`
	Xpath   string `xml:"Xpath"`
}

// ParseLogicXML reads translation logic from its XML form.
func ParseLogicXML(r io.Reader) (*Logic, error) {
	var x XMLLogic
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, fmt.Errorf("translation: %w", err)
	}
	return LogicFromXML(x)
}

// LogicFromXML validates decoded translation logic and compiles its
// field paths.
func LogicFromXML(x XMLLogic) (*Logic, error) {
	l := &Logic{}
	for i, xa := range x.Assignments {
		a := &Assignment{Func: xa.Function}
		if len(xa.Fields) == 0 {
			return nil, fmt.Errorf("translation: assignment %d has no target field", i)
		}
		target, err := fieldRefFromXML(xa.Fields[0])
		if err != nil {
			return nil, fmt.Errorf("translation: assignment %d target: %w", i, err)
		}
		a.Target = target
		switch {
		case len(xa.Fields) >= 2 && xa.Value != nil:
			return nil, fmt.Errorf("translation: assignment %d has both source field and value", i)
		case len(xa.Fields) >= 2:
			src, err := fieldRefFromXML(xa.Fields[1])
			if err != nil {
				return nil, fmt.Errorf("translation: assignment %d source: %w", i, err)
			}
			a.Source = &src
		case xa.Value != nil:
			v := *xa.Value
			a.Const = &v
		default:
			return nil, fmt.Errorf("translation: assignment %d has no source", i)
		}
		l.Assignments = append(l.Assignments, a)
	}
	return l, nil
}

func fieldRefFromXML(x xmlField) (FieldRef, error) {
	if x.Message == "" {
		return FieldRef{}, fmt.Errorf("field without message name")
	}
	p, err := xpath.Compile(strings.TrimSpace(x.Xpath))
	if err != nil {
		return FieldRef{}, err
	}
	return FieldRef{Message: x.Message, Path: p}, nil
}
