// Allocation-regression tests for the pooled message fast path: the
// full parse → translate → compose round-trip of one bridged exchange
// is pinned at its measured allocation count, so creeping per-packet
// garbage fails CI instead of surfacing as GC pressure under load.
package starlink_test

import (
	"testing"

	"starlink/internal/composer"
	"starlink/internal/message"
	"starlink/internal/parser"
	"starlink/internal/registry"
	"starlink/internal/translation"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a quarter of what it is given (the round trip then reads 22), so
// an exact pin over pooled messages does not hold.
var raceEnabled bool

// TestBridgeRoundTripAllocs drives the slp-to-upnp data path the way a
// session does — parse the SLP request, apply the translation logic
// for the SLP reply against the stored history, compose the reply —
// with every message returned to the pools, and pins the steady-state
// allocation count.
func TestBridgeRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	reg, err := registry.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Compiled("slp-to-upnp")
	if err != nil {
		t.Fatal(err)
	}
	slpSpec, _ := reg.Spec("SLP")
	p, err := parser.New(slpSpec, reg.Types())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := composer.New(slpSpec, reg.Types(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// The initiator request on the wire.
	req := message.New("SLP", "SLPSrvRequest")
	req.AddPrimitive("Version", message.Int(2))
	req.AddPrimitive("FunctionID", message.Int(1))
	req.AddPrimitive("XID", message.Int(42))
	req.AddPrimitive("LangTag", message.Str("en"))
	req.AddPrimitive("SRVType", message.Str("service:printer"))
	wire, err := comp.Compose(req)
	if err != nil {
		t.Fatal(err)
	}
	// The mid-session HTTP OK whose URLBase feeds the reply.
	httpOK := message.New("HTTP", "HTTPOk")
	httpOK.AddPrimitive("URLBase", message.Str("http://10.0.0.7:5431/svc"))

	funcs := translation.NewFuncRegistry()
	var reply []byte // a worker's wire buffer: composed into, reused
	roundTrip := func() {
		parsed, err := p.Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		out := message.NewPooled("SLP", "SLPSrvReply")
		env := translation.Env{Lookup: func(name string) *message.Message {
			switch name {
			case "SLPSrvRequest":
				return parsed
			case "HTTPOk":
				return httpOK
			}
			return nil
		}}
		if err := c.Merged.Logic.Apply(out, env, funcs); err != nil {
			t.Fatal(err)
		}
		if reply, err = comp.AppendCompose(reply[:0], out); err != nil {
			t.Fatal(err)
		}
		out.Release()
		parsed.Release()
	}
	roundTrip() // warm the pools

	// The measured steady state, exactly: the parsed request's value
	// strings. The reply is marshalled into the composer's pooled arena
	// and appended to the reused wire buffer, as a session's send step
	// does. One more allocation per round trip is per-packet garbage
	// creeping back in; an improvement lowers the pin with it.
	const pinned = 4
	if got := testing.AllocsPerRun(200, roundTrip); got > pinned {
		t.Errorf("bridge round-trip allocates %.1f per run, pinned at %d", got, pinned)
	}
}
