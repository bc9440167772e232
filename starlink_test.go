package starlink_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/simnet"
)

// TestPublicAPICustomModels loads a user-defined protocol pair through
// the registry — the runtime-extensibility path: a trivial text "PING"
// protocol bridged to a trivial binary "ECHO" protocol, defined
// entirely here, with zero framework changes.
func TestPublicAPICustomModels(t *testing.T) {
	rt := starlink.Simulated()
	sim := rt.Backend().(*simnet.Net)
	fw := starlink.NewEmpty(rt)
	reg := fw.Registry()

	const pingMDL = `
<MDL protocol="PING" dialect="text">
 <Types><Method>String</Method><URI>String</URI><Version>String</Version><Payload>String</Payload></Types>
 <Header type="PING"><Method>32</Method><URI>32</URI><Version>13,10</Version><Fields>13,10:58</Fields></Header>
 <Message type="PingReq" mandatory="Payload"><Rule>Method=PING</Rule></Message>
 <Message type="PingResp"><Rule>Method=PONG</Rule></Message>
</MDL>`
	const echoMDL = `
<MDL protocol="ECHO" dialect="binary">
 <Types><Op>Integer</Op><Len>Integer</Len><Data>String</Data></Types>
 <Header type="ECHO"><Op>8</Op></Header>
 <Message type="EchoReq" mandatory="Data"><Rule>Op=1</Rule><Len>16</Len><Data>Len</Data></Message>
 <Message type="EchoResp"><Rule>Op=2</Rule><Len>16</Len><Data>Len</Data></Message>
</MDL>`
	const pingServer = `
<Automaton protocol="PING" initial="a" finals="b">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="7001"/>
  <Attr key="multicast" value="no"/>
 </Color>
 <State name="a"/><State name="b"/>
 <Transition from="a" to="b" action="receive" message="PingReq"/>
 <Transition from="b" to="b" action="send" message="PingResp" replyToOrigin="true"/>
</Automaton>`
	const echoClient = `
<Automaton protocol="ECHO" initial="a" finals="c">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="7002"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="239.7.7.7"/>
 </Color>
 <State name="a"/><State name="b"/><State name="c"/>
 <Transition from="a" to="b" action="send" message="EchoReq"/>
 <Transition from="b" to="c" action="receive" message="EchoResp"/>
</Automaton>`
	const mergedDoc = `
<MergedAutomaton name="ping-to-echo" initiator="PING">
 <AutomatonRef protocol="PING" name="ping-server"/>
 <AutomatonRef protocol="ECHO" name="echo-client"/>
 <Equivalence output="EchoReq" inputs="PingReq"/>
 <Equivalence output="PingResp" inputs="EchoResp"/>
 <Delta from="PING:b" to="ECHO:a"/>
 <Delta from="ECHO:c" to="PING:b"/>
 <TranslationLogic>
  <Assignment>
   <Field><Message>EchoReq</Message><Xpath>/field/primitiveField[label='Data']/value</Xpath></Field>
   <Field><Message>PingReq</Message><Xpath>/field/primitiveField[label='Payload']/value</Xpath></Field>
  </Assignment>
  <Assignment>
   <Field><Message>PingResp</Message><Xpath>/field/primitiveField[label='URI']/value</Xpath></Field>
   <Value>ok</Value>
  </Assignment>
  <Assignment>
   <Field><Message>PingResp</Message><Xpath>/field/primitiveField[label='Version']/value</Xpath></Field>
   <Value>P/1.0</Value>
  </Assignment>
  <Assignment>
   <Field><Message>PingResp</Message><Xpath>/field/primitiveField[label='Payload']/value</Xpath></Field>
   <Field><Message>EchoResp</Message><Xpath>/field/primitiveField[label='Data']/value</Xpath></Field>
  </Assignment>
 </TranslationLogic>
</MergedAutomaton>`

	for _, doc := range []string{pingMDL, echoMDL} {
		if err := reg.LoadMDL(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.LoadAutomaton("ping-server", pingServer); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadAutomaton("echo-client", echoClient); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadMerged(mergedDoc); err != nil {
		t.Fatal(err)
	}

	bridge, err := fw.DeployBridge(context.Background(), "10.0.0.5", "ping-to-echo")
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	// Legacy ECHO service (hand-rolled binary peer): op(1B) len(2B)
	// data; responds op=2 with upper-cased data.
	svcNode, _ := sim.NewNode("10.0.0.9")
	var svcSock netapi.UDPSocket
	svcSock, err = svcNode.JoinGroup(netapi.Addr{IP: "239.7.7.7", Port: 7002}, func(p netapi.Packet) {
		if len(p.Data) < 3 || p.Data[0] != 1 {
			return
		}
		n := int(p.Data[1])<<8 | int(p.Data[2])
		if 3+n > len(p.Data) {
			return
		}
		data := strings.ToUpper(string(p.Data[3 : 3+n]))
		out := append([]byte{2, byte(n >> 8), byte(n)}, data...)
		if err := svcSock.Send(p.From, out); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Legacy PING client (hand-rolled text peer).
	cliNode, _ := sim.NewNode("10.0.0.1")
	var resp string
	cliSock, err := cliNode.OpenUDP(0, func(p netapi.Packet) {
		text := string(p.Data)
		for _, line := range strings.Split(text, "\r\n") {
			if v, ok := strings.CutPrefix(line, "Payload:"); ok {
				resp = strings.TrimSpace(v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wire := "PING /svc P/1.0\r\nPayload: hello\r\n\r\n"
	if err := cliSock.Send(netapi.Addr{IP: "10.0.0.5", Port: 7001}, []byte(wire)); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()

	if resp != "HELLO" {
		t.Fatalf("resp = %q (bridged PING→ECHO→PING roundtrip broken)", resp)
	}
	if m := bridge.Metrics(); m.Sessions.Completed != 1 {
		t.Fatalf("completed = %d (metrics %+v)", m.Sessions.Completed, m)
	}
}

func TestFrameworkUnknownCase(t *testing.T) {
	fw, err := starlink.New(starlink.Simulated())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.DeployBridge(context.Background(), "10.0.0.5", "corba-to-soap"); !errors.Is(err, starlink.ErrUnknownCase) {
		t.Fatalf("err = %v, want ErrUnknownCase", err)
	}
}

func TestNewEmptyHasNoModels(t *testing.T) {
	fw := starlink.NewEmpty(starlink.Simulated())
	if got := fw.Registry().MergedNames(); len(got) != 0 {
		t.Fatalf("merged = %v", got)
	}
	if got := fw.Registry().Protocols(); len(got) != 0 {
		t.Fatalf("protocols = %v", got)
	}
}
