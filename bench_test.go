// Benchmarks regenerating the paper's evaluation (Fig. 12) plus
// micro-ablations of the framework's moving parts. The Fig. 12 benches
// run complete discovery interactions on the virtual-clock simulator,
// so one iteration costs milliseconds of wall time regardless of the
// protocol waits being simulated; reported values are wall-clock cost
// of the simulation, while the reproduced virtual-time tables come
// from `go run ./cmd/starlink-bench` (see EXPERIMENTS.md).
package starlink_test

import (
	"fmt"
	"strings"
	"testing"

	"starlink/internal/automata"
	"starlink/internal/bench"
	"starlink/internal/composer"
	"starlink/internal/message"
	"starlink/internal/parser"
	"starlink/internal/protocols/upnp"
	"starlink/internal/registry"
	"starlink/internal/translation"
	"starlink/internal/xpath"
)

// ---------------------------------------------------------------------
// Fig. 12(a): native legacy stacks
// ---------------------------------------------------------------------

func benchNative(b *testing.B, proto string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunNative(proto, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12aNativeSLP(b *testing.B)     { benchNative(b, "SLP") }
func BenchmarkFig12aNativeBonjour(b *testing.B) { benchNative(b, "Bonjour") }
func BenchmarkFig12aNativeUPnP(b *testing.B)    { benchNative(b, "UPnP") }

// ---------------------------------------------------------------------
// Fig. 12(b): the six Starlink connectors
// ---------------------------------------------------------------------

// benchBridge builds a world per iteration — simulator, registry lookup,
// engine.New, legacy peers — and bridges one interaction through it, so
// BenchmarkFig12b* are set-up benchmarks: ≈ 90 % of their B/op is
// engine.New (its eager stage histograms and per-worker full-capacity
// lane rings; results/PR17.md has the bisect), not the message path. Warm
// per-interaction cost is the repository benchmark's
// (benchmarks/README.md).
func benchBridge(b *testing.B, caseName string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunBridge(caseName, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12bCase1SLPToUPnP(b *testing.B)     { benchBridge(b, "slp-to-upnp") }
func BenchmarkFig12bCase2SLPToBonjour(b *testing.B)  { benchBridge(b, "slp-to-bonjour") }
func BenchmarkFig12bCase3UPnPToSLP(b *testing.B)     { benchBridge(b, "upnp-to-slp") }
func BenchmarkFig12bCase4UPnPToBonjour(b *testing.B) { benchBridge(b, "upnp-to-bonjour") }
func BenchmarkFig12bCase5BonjourToUPnP(b *testing.B) { benchBridge(b, "bonjour-to-upnp") }
func BenchmarkFig12bCase6BonjourToSLP(b *testing.B)  { benchBridge(b, "bonjour-to-slp") }

// ---------------------------------------------------------------------
// Ablations: per-message cost of the framework's stages
// ---------------------------------------------------------------------

func mustRegistry(b *testing.B) *registry.Registry {
	b.Helper()
	reg, err := registry.Builtin()
	if err != nil {
		b.Fatal(err)
	}
	return reg
}

func slpRequestWire(b *testing.B) []byte {
	b.Helper()
	reg := mustRegistry(b)
	spec, _ := reg.Spec("SLP")
	c, err := composer.New(spec, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := message.New("SLP", "SLPSrvRequest")
	msg.AddPrimitive("Version", message.Int(2))
	msg.AddPrimitive("FunctionID", message.Int(1))
	msg.AddPrimitive("XID", message.Int(42))
	msg.AddPrimitive("LangTag", message.Str("en"))
	msg.AddPrimitive("SRVType", message.Str("service:printer"))
	wire, err := c.Compose(msg)
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

// BenchmarkParseSLPBinary measures the MDL-driven binary parser on an
// SLP SrvRequest (the generic interpreter the paper generates at
// runtime instead of compiling).
func BenchmarkParseSLPBinary(b *testing.B) {
	reg := mustRegistry(b)
	spec, _ := reg.Spec("SLP")
	p, err := parser.New(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	wire := slpRequestWire(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Steady-state parse: the message returns to the pool, as on
		// the engine's session path.
		msg, err := p.Parse(wire)
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}

// BenchmarkComposeSLPBinary measures the two-pass binary composer
// (function-field patching included).
func BenchmarkComposeSLPBinary(b *testing.B) {
	reg := mustRegistry(b)
	spec, _ := reg.Spec("SLP")
	c, err := composer.New(spec, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	msg := message.New("SLP", "SLPSrvReply")
	msg.AddPrimitive("Version", message.Int(2))
	msg.AddPrimitive("FunctionID", message.Int(2))
	msg.AddPrimitive("XID", message.Int(42))
	msg.AddPrimitive("LangTag", message.Str("en"))
	msg.AddPrimitive("URLCount", message.Int(1))
	msg.AddPrimitive("URLEntry", message.Str("service:printer://10.0.0.9:515"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Clone + release per iteration: compose mutates its message
		// (rule and function fields), and on the engine path each
		// composed message is session-owned and recycled.
		cl := msg.Clone()
		if _, err := c.Compose(cl); err != nil {
			b.Fatal(err)
		}
		cl.Release()
	}
}

// BenchmarkParseSSDPText measures the text-dialect parser with the
// Fields wildcard and structured URL explosion.
func BenchmarkParseSSDPText(b *testing.B) {
	reg := mustRegistry(b)
	spec, _ := reg.Spec("SSDP")
	p, err := parser.New(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	wire := []byte("HTTP/1.1 200 OK\r\n" +
		"CACHE-CONTROL: max-age=1800\r\n" +
		"LOCATION: http://10.0.0.7:5431/desc.xml\r\n" +
		"ST: urn:printer\r\n" +
		"USN: uuid:x\r\n\r\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := p.Parse(wire)
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}

// BenchmarkParseHTTPXMLBody measures text parsing plus XML body
// flattening (device description handling) on three description shapes:
// a three-leaf stub, the repository benchmark's description (one 4 KiB
// text run) and a realistic one (~60 short leaves in 3 KiB).
func BenchmarkParseHTTPXMLBody(b *testing.B) {
	reg := mustRegistry(b)
	spec, _ := reg.Spec("HTTP")
	p, err := parser.New(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	var leaves strings.Builder
	leaves.WriteString(`<?xml version="1.0" encoding="utf-8"?>` + "\n" +
		`<root xmlns="urn:schemas-upnp-org:device-1-0">` + "\n" +
		" <specVersion><major>1</major><minor>0</minor></specVersion>\n" +
		" <URLBase>http://10.0.0.7:5431/svc</URLBase>\n <device>\n" +
		"  <friendlyName>Office printer, 2nd floor</friendlyName>\n  <serviceList>\n")
	for i := 0; i < 14; i++ {
		fmt.Fprintf(&leaves, "   <service>\n    <serviceType%d>urn:schemas-upnp-org:service:Print:%d</serviceType%d>\n"+
			"    <serviceId%d>urn:upnp-org:serviceId:%d</serviceId%d>\n    <SCPDURL%d>/scpd/%d.xml</SCPDURL%d>\n"+
			"    <controlURL%d>/ctl/%d</controlURL%d>\n   </service>\n", i, i, i, i, i, i, i, i, i, i, i, i)
	}
	leaves.WriteString("  </serviceList>\n </device>\n</root>\n")
	for _, shape := range []struct{ name, body string }{
		{"stub", "<root><specVersion><major>1</major></specVersion>" +
			"<URLBase>http://10.0.0.7:5431/svc</URLBase>" +
			"<device><friendlyName>Printer</friendlyName></device></root>"},
		{"text4k", string(upnp.DescriptionXML("Starlink bench printer "+strings.Repeat("x", 4096),
			"urn:printer", "http://10.0.0.7:5431/svc"))},
		{"leaves60", leaves.String()},
	} {
		wire := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n\r\n" + shape.body)
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				msg, err := p.Parse(wire)
				if err != nil {
					b.Fatal(err)
				}
				msg.Release()
			}
		})
	}
}

// BenchmarkXPathGet measures field addressing through the Fig. 8 XPath
// subset.
func BenchmarkXPathGet(b *testing.B) {
	msg := message.New("SSDP", "SSDPResponse")
	msg.Add(&message.Field{Label: "LOCATION", Children: []*message.Field{
		{Label: "address", Value: message.Str("10.0.0.7")},
		{Label: "port", Value: message.Int(5431)},
	}})
	p := xpath.MustCompile("/field/structuredField[label='LOCATION']/primitiveField[label='port']/value")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslationApply measures applying the full Fig. 5
// assignment set for an outgoing SLP SrvReply.
func BenchmarkTranslationApply(b *testing.B) {
	reg := mustRegistry(b)
	m, err := reg.Merged("slp-to-upnp")
	if err != nil {
		b.Fatal(err)
	}
	funcs := translation.NewFuncRegistry()
	request := message.New("SLP", "SLPSrvRequest")
	request.AddPrimitive("XID", message.Int(42))
	request.AddPrimitive("LangTag", message.Str("en"))
	request.AddPrimitive("SRVType", message.Str("service:printer"))
	ok := message.New("HTTP", "HTTPOk")
	ok.AddPrimitive("URLBase", message.Str("http://10.0.0.7:5431/svc"))
	stored := map[string]*message.Message{"SLPSrvRequest": request, "HTTPOk": ok}
	env := translation.Env{Lookup: func(n string) *message.Message { return stored[n] }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := message.NewPooled("SLP", "SLPSrvReply")
		if err := m.Logic.Apply(out, env, funcs); err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkColorKey measures the §III-B perfect-hash encoding.
func BenchmarkColorKey(b *testing.B) {
	c := automata.NewColor(
		automata.Attr{Key: "transport_protocol", Value: "udp"},
		automata.Attr{Key: "port", Value: "427"},
		automata.Attr{Key: "mode", Value: "async"},
		automata.Attr{Key: "multicast", Value: "yes"},
		automata.Attr{Key: "group", Value: "239.255.255.253"},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Key()
	}
}

// BenchmarkMergedCompile measures linearising the Fig. 4 merged
// automaton into its execution program (the uncached compiler —
// Recompile bypasses the memo that the runtime path hits).
func BenchmarkMergedCompile(b *testing.B) {
	reg := mustRegistry(b)
	m, err := reg.Merged("slp-to-upnp")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Recompile(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergedCompileMemoized measures what engine deployment
// actually pays: Compile on an already-compiled case. Expect zero
// allocations — repeated deployments of a cached case do zero
// recompilation.
func BenchmarkMergedCompileMemoized(b *testing.B) {
	reg := mustRegistry(b)
	m, err := reg.Merged("slp-to-upnp")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Compile(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compile(); err != nil {
			b.Fatal(err)
		}
		if _, err := m.EntryProtocols(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledCaseHit measures the registry's compiled-case cache
// on the deployment hot path: program + entry index + full codec set
// for an unchanged case. Expect zero allocations after the first
// build — this is what makes redeploying (or hot-syncing) a cached
// case free.
func BenchmarkCompiledCaseHit(b *testing.B) {
	reg := mustRegistry(b)
	if _, err := reg.Compiled("slp-to-upnp"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Compiled("slp-to-upnp"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergedValidate measures the full merge-constraint check
// (δ constraints (2)/(3), weak-merge chain (4)).
func BenchmarkMergedValidate(b *testing.B) {
	reg := mustRegistry(b)
	m, err := reg.Merged("upnp-to-slp")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelLoad measures loading the entire built-in model corpus
// (four MDLs, eight automata, six merged automata) — the cost of
// "generating" a complete interoperability deployment at runtime.
func BenchmarkModelLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := registry.Builtin(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFramerText measures stream framing of an HTTP response.
func BenchmarkFramerText(b *testing.B) {
	reg := mustRegistry(b)
	spec, _ := reg.Spec("HTTP")
	fr, err := parser.NewFramer(spec)
	if err != nil {
		b.Fatal(err)
	}
	wire := []byte("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.Frame(wire); err != nil {
			b.Fatal(err)
		}
	}
}
