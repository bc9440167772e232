// Golden tests pinning the embedded model files to the paper's figures.
package models

import (
	"io/fs"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/mdl"
)

// file returns one embedded model document by base name.
func file(t *testing.T, name string) string {
	t.Helper()
	data, err := FS.ReadFile(name + ".xml")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// automatonNames are the eight colored automata, named by model name.
var automatonNames = []string{
	"http-client", "http-server", "mdns-client", "mdns-server",
	"slp-client", "slp-server", "ssdp-client", "ssdp-server",
}

// TestFig1SLPAutomaton checks the SLP colored automaton against the
// paper's Fig. 1: two states, ?SLP_SrvReq then !SLP_SrvReply, colored
// udp/427/async/multicast/239.255.255.253.
func TestFig1SLPAutomaton(t *testing.T) {
	a, err := automata.ParseXMLString(file(t, "slp-server"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Protocol != "SLP" || len(a.States) != 2 {
		t.Fatalf("a = %+v", a)
	}
	s0, _ := a.StateByName("s0")
	for _, want := range []struct{ k, v string }{
		{"transport_protocol", "udp"},
		{"port", "427"},
		{"mode", "async"},
		{"multicast", "yes"},
		{"group", "239.255.255.253"},
	} {
		if got, _ := s0.Color.Get(want.k); got != want.v {
			t.Errorf("color %s = %q, want %q", want.k, got, want.v)
		}
	}
	if a.Transitions[0].Label() != "?SLPSrvRequest" {
		t.Errorf("t0 = %s", a.Transitions[0].Label())
	}
	if a.Transitions[1].Label() != "!SLPSrvReply" {
		t.Errorf("t1 = %s", a.Transitions[1].Label())
	}
}

// TestFig2SSDPAutomaton: !SSDP_Search then ?SSDP_Resp on
// 239.255.255.250:1900.
func TestFig2SSDPAutomaton(t *testing.T) {
	a, err := automata.ParseXMLString(file(t, "ssdp-client"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.States) != 3 {
		t.Fatalf("states = %d (Fig. 2 has s0,s1,s2)", len(a.States))
	}
	s0, _ := a.StateByName("s0")
	if g, _ := s0.Color.Get("group"); g != "239.255.255.250" {
		t.Errorf("group = %q", g)
	}
	if p, _ := s0.Color.GetInt("port"); p != 1900 {
		t.Errorf("port = %d", p)
	}
	if a.Transitions[0].Action != automata.Send || a.Transitions[1].Action != automata.Receive {
		t.Error("Fig. 2 is send-then-receive")
	}
}

// TestFig3HTTPAutomaton: !HTTP_GET then ?HTTP_OK over sync TCP:80.
func TestFig3HTTPAutomaton(t *testing.T) {
	a, err := automata.ParseXMLString(file(t, "http-client"))
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := a.StateByName("s0")
	if tr, _ := s0.Color.Get("transport_protocol"); tr != "tcp" {
		t.Errorf("transport = %q", tr)
	}
	if m, _ := s0.Color.Get("mode"); m != "sync" {
		t.Errorf("mode = %q", m)
	}
	if mc, _ := s0.Color.Get("multicast"); mc != "no" {
		t.Errorf("multicast = %q", mc)
	}
	if p, _ := s0.Color.GetInt("port"); p != 80 {
		t.Errorf("port = %d", p)
	}
}

// TestFig9MDNSAutomaton: !DNS_Question then ?DNS_Response on
// 224.0.0.251:5353.
func TestFig9MDNSAutomaton(t *testing.T) {
	a, err := automata.ParseXMLString(file(t, "mdns-client"))
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := a.StateByName("s0")
	if g, _ := s0.Color.Get("group"); g != "224.0.0.251" {
		t.Errorf("group = %q", g)
	}
	if p, _ := s0.Color.GetInt("port"); p != 5353 {
		t.Errorf("port = %d", p)
	}
	if a.Transitions[0].Message != "DNSQuestion" || a.Transitions[1].Message != "DNSResponse" {
		t.Errorf("transitions = %v, %v", a.Transitions[0], a.Transitions[1])
	}
}

// TestDistinctColors: the paper's point about coloring — SLP, SSDP and
// mDNS are all async multicast UDP yet have distinct colors k because
// their groups/ports differ.
func TestDistinctColors(t *testing.T) {
	colors := map[string]automata.Color{}
	for _, name := range []string{"slp-server", "ssdp-client", "mdns-client", "http-client"} {
		a, err := automata.ParseXMLString(file(t, name))
		if err != nil {
			t.Fatal(err)
		}
		colors[name] = a.Colors()[0]
	}
	keys := map[string]string{}
	for name, c := range colors {
		if prev, dup := keys[c.Key()]; dup {
			t.Errorf("%s and %s share color %s", name, prev, c)
		}
		keys[c.Key()] = name
	}
}

// TestFig7SLPMDL checks the SLP MDL against the paper's Fig. 7: the
// header layout bit-widths and the function-typed fields.
func TestFig7SLPMDL(t *testing.T) {
	spec, err := mdl.ParseXMLString(file(t, "slp-mdl"))
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := []struct {
		label string
		bits  int
		ref   string
	}{
		{"Version", 8, ""},
		{"FunctionID", 8, ""},
		{"MessageLength", 24, ""},
		{"reserved", 16, ""},
		{"NextExtOffset", 24, ""},
		{"XID", 16, ""},
		{"LangTagLen", 16, ""},
		{"LangTag", 0, "LangTagLen"},
	}
	if len(spec.Header.Fields) != len(wantHeader) {
		t.Fatalf("header fields = %d", len(spec.Header.Fields))
	}
	for i, want := range wantHeader {
		f := spec.Header.Fields[i]
		if f.Label != want.label || f.SizeBits != want.bits || f.SizeRef != want.ref {
			t.Errorf("header[%d] = %+v, want %+v", i, f, want)
		}
	}
	// Fig. 7 lines 4-5: URLEntry String, URLLength Integer[f-length(URLEntry)].
	td := spec.Types["URLLength"]
	if td.TypeName != "Integer" || td.Func == nil || td.Func.Name != "f-length" || td.Func.Args[0] != "URLEntry" {
		t.Errorf("URLLength = %+v", td)
	}
	// Fig. 7 line 19: rule FunctionID=1 selects SrvRequest.
	req, ok := spec.MessageByName("SLPSrvRequest")
	if !ok || req.Rule.Field != "FunctionID" || req.Rule.Value != "1" {
		t.Errorf("req rule = %+v", req)
	}
}

// TestFig11SSDPMDL checks the SSDP MDL against the paper's Fig. 11:
// space-delimited start line, CRLF fields with ':' inner split, and
// the two message rules.
func TestFig11SSDPMDL(t *testing.T) {
	spec, err := mdl.ParseXMLString(file(t, "ssdp-mdl"))
	if err != nil {
		t.Fatal(err)
	}
	h := spec.Header.Fields
	if string(h[0].Delim) != " " || string(h[1].Delim) != " " || string(h[2].Delim) != "\r\n" {
		t.Errorf("start line delims wrong: %v %v %v", h[0].Delim, h[1].Delim, h[2].Delim)
	}
	w := h[3]
	if !w.Wildcard || string(w.Delim) != "\r\n" || w.InnerSplit != ':' {
		t.Errorf("Fields = %+v (want 13,10:58)", w)
	}
	search, _ := spec.MessageByName("SSDPMSearch")
	if search == nil || search.Rule.Value != "M-SEARCH" {
		t.Errorf("search rule = %+v", search)
	}
	resp, _ := spec.MessageByName("SSDPResponse")
	if resp == nil || resp.Rule.Value != "HTTP/1.1" {
		t.Errorf("resp rule = %+v", resp)
	}
}

// TestFig5MergeSpec checks the slp-to-upnp translation logic carries
// the paper's Fig. 5 content: the three equivalences, the ST/URL/XID
// assignments and the setHost δ-action.
func TestFig5MergeSpec(t *testing.T) {
	doc := file(t, "slp-to-upnp")
	for _, want := range []string{
		// line 1-3 equivalences
		`<Equivalence output="SSDPMSearch" inputs="SLPSrvRequest"/>`,
		`<Equivalence output="HTTPGet" inputs="SSDPResponse"/>`,
		`<Equivalence output="SLPSrvReply" inputs="HTTPOk"/>`,
		// line 4: M-Search ST := SrvReq ServiceType
		"[label='ST']",
		"[label='SRVType']",
		// lines 8-9: reply URL and XID
		"[label='URLEntry']",
		"[label='XID']",
		// lines 10-12: the δ-transitions with setHost
		`<Delta from="SLP:s1" to="SSDP:s0"/>`,
		`name="setHost"`,
		`<Delta from="HTTP:s2" to="SLP:s1"/>`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("slp-to-upnp model missing %q", want)
		}
	}
}

// TestDOTExports ensures every automaton renders to Graphviz (the
// regenerable form of Figs. 1/2/3/9).
func TestDOTExports(t *testing.T) {
	for _, name := range automatonNames {
		a, err := automata.ParseXMLString(file(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dot := a.DOT()
		if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
			t.Errorf("%s: bad DOT:\n%s", name, dot)
		}
	}
}

// TestAllMDLsParse ensures the full MDL corpus stays valid.
func TestAllMDLsParse(t *testing.T) {
	names, err := fs.Glob(FS, "*-mdl.xml")
	if err != nil || len(names) != 4 {
		t.Fatalf("MDL files = %v, %v", names, err)
	}
	for _, name := range names {
		spec, err := mdl.ParseXMLString(file(t, strings.TrimSuffix(name, ".xml")))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(spec.Messages) < 2 {
			t.Errorf("%s: only %d messages", name, len(spec.Messages))
		}
	}
}
