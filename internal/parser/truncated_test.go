package parser_test

import (
	"bytes"
	"testing"

	"starlink/internal/parser"
	"starlink/internal/protocols/httpx"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/registry"
)

// textMessage is a shipped text stack's request or response, and the
// message the shipped model parses it as.
type textMessage struct {
	name, protocol string
	wire           []byte
	want           string // "" when the shipped model has no such message
}

func textMessages() []textMessage {
	notify := &ssdp.Message{Method: "NOTIFY", URI: "*", Version: "HTTP/1.1", Headers: map[string]string{
		"HOST": "239.255.255.250:1900", "NT": "urn:printer", "NTS": "ssdp:alive", "LOCATION": "http://10.0.0.7:5431/desc.xml",
	}}
	return []textMessage{
		{"M-SEARCH", "SSDP", ssdp.NewMSearch("urn:printer", 1).Marshal(), "SSDPMSearch"},
		{"NOTIFY", "SSDP", notify.Marshal(), ""},
		{"response", "SSDP", ssdp.NewResponse("urn:printer", "http://10.0.0.7:5431/desc.xml", "uuid:1").Marshal(), "SSDPResponse"},
		{"GET", "HTTP", httpx.MarshalRequest("/desc.xml", "10.0.0.7:5431"), "HTTPGet"},
	}
}

// A text message is complete only with the empty line that ends its
// header block. One that lost its tail used to parse when the cut fell
// on a line boundary — an M-SEARCH missing its final CRLF came back as
// an SSDPMSearch and, as an initiator request, opened a session — so
// every proper prefix of every shipped text request and response must
// be a parse error, the line boundaries among them.
func TestTruncatedTextMessageIsAnError(t *testing.T) {
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range textMessages() {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := reg.Spec(tc.protocol)
			if err != nil {
				t.Fatal(err)
			}
			p, err := parser.New(spec, reg.Types())
			if err != nil {
				t.Fatal(err)
			}
			msg, err := p.Parse(tc.wire)
			switch {
			case tc.want == "" && err == nil:
				t.Fatalf("whole message parsed as %s, want an error: the model has no such message", msg.Name)
			case tc.want != "" && err != nil:
				t.Fatalf("whole message: %v", err)
			case tc.want != "" && msg.Name != tc.want:
				t.Fatalf("whole message parsed as %s, want %s", msg.Name, tc.want)
			}
			if msg != nil {
				msg.Release()
			}
			boundaries := 0
			for cut := 0; cut < len(tc.wire); cut++ {
				atLine := bytes.HasSuffix(tc.wire[:cut], []byte("\r\n"))
				if atLine {
					boundaries++
				}
				if msg, err := p.Parse(tc.wire[:cut]); err == nil {
					t.Errorf("first %d of %d bytes (line boundary: %v) parsed as %s, want an error", cut, len(tc.wire), atLine, msg.Name)
					msg.Release()
				}
			}
			if boundaries < 2 {
				t.Fatalf("only %d line boundaries tried", boundaries)
			}
		})
	}
}
