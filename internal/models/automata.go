package models

// Colored automata for each protocol, in both roles the bridge can
// play. The server-role SLP automaton is the paper's Fig. 1 (the
// bridge stands in for an SLP service: it receives the request and
// eventually replies). The client roles (Figs. 2 and 3 and the mDNS
// client of Fig. 9) are what the bridge executes toward the real
// legacy service on the other side.

// SLPServerAutomaton is Fig. 1: ?SLP_SrvReq then !SLP_SrvReply.
const SLPServerAutomaton = `
<Automaton protocol="SLP" initial="s0" finals="s1">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="427"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="239.255.255.253"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <Transition from="s0" to="s1" action="receive" message="SLPSrvRequest"/>
 <Transition from="s1" to="s1" action="send" message="SLPSrvReply" replyToOrigin="true"/>
</Automaton>`

// SLPClientAutomaton is the requester role used by the →SLP bridge
// cases. Its color carries the multicast convergence window (ms) that
// an SLP requester must wait to collect replies — the behaviour behind
// the ~6.2-6.3 s →SLP rows of Fig. 12(b) — and the txid attribute: a
// reply carries its request's XID (RFC 2608 §8).
const SLPClientAutomaton = `
<Automaton protocol="SLP" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="427"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="239.255.255.253"/>
  <Attr key="convergence" value="6250"/>
  <Attr key="txid" value="XID"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="send" message="SLPSrvRequest"/>
 <Transition from="s1" to="s2" action="receive" message="SLPSrvReply"/>
</Automaton>`

// SSDPClientAutomaton is Fig. 2: !SSDP_Search then ?SSDP_Resp.
const SSDPClientAutomaton = `
<Automaton protocol="SSDP" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="1900"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="239.255.255.250"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="send" message="SSDPMSearch"/>
 <Transition from="s1" to="s2" action="receive" message="SSDPResponse"/>
</Automaton>`

// SSDPServerAutomaton is the responder role for the UPnP→X cases.
const SSDPServerAutomaton = `
<Automaton protocol="SSDP" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="1900"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="239.255.255.250"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="receive" message="SSDPMSearch"/>
 <Transition from="s1" to="s2" action="send" message="SSDPResponse" replyToOrigin="true"/>
</Automaton>`

// HTTPClientAutomaton is Fig. 3: !HTTP_GET then ?HTTP_OK over
// synchronous TCP. The destination comes from a setHost λ action.
const HTTPClientAutomaton = `
<Automaton protocol="HTTP" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="tcp"/>
  <Attr key="port" value="80"/>
  <Attr key="mode" value="sync"/>
  <Attr key="multicast" value="no"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="send" message="HTTPGet"/>
 <Transition from="s1" to="s2" action="receive" message="HTTPOk"/>
</Automaton>`

// HTTPServerAutomaton is the description-serving role for the reverse
// UPnP cases: the bridge itself answers the control point's GET on its
// own port 8080.
const HTTPServerAutomaton = `
<Automaton protocol="HTTP" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="tcp"/>
  <Attr key="port" value="8080"/>
  <Attr key="mode" value="sync"/>
  <Attr key="multicast" value="no"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="receive" message="HTTPGet"/>
 <Transition from="s1" to="s2" action="send" message="HTTPOk" replyToOrigin="true"/>
</Automaton>`

// MDNSClientAutomaton is Fig. 9: !DNS_Question then ?DNS_Response. A
// responder echoes the question's ID in its unicast answer (RFC 6762
// §6.7), which the txid attribute declares.
const MDNSClientAutomaton = `
<Automaton protocol="mDNS" initial="s0" finals="s2">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="5353"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="224.0.0.251"/>
  <Attr key="txid" value="ID"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <State name="s2"/>
 <Transition from="s0" to="s1" action="send" message="DNSQuestion"/>
 <Transition from="s1" to="s2" action="receive" message="DNSResponse"/>
</Automaton>`

// MDNSServerAutomaton is the responder role for the Bonjour→X cases.
const MDNSServerAutomaton = `
<Automaton protocol="mDNS" initial="s0" finals="s1">
 <Color>
  <Attr key="transport_protocol" value="udp"/>
  <Attr key="port" value="5353"/>
  <Attr key="mode" value="async"/>
  <Attr key="multicast" value="yes"/>
  <Attr key="group" value="224.0.0.251"/>
 </Color>
 <State name="s0"/>
 <State name="s1"/>
 <Transition from="s0" to="s1" action="receive" message="DNSQuestion"/>
 <Transition from="s1" to="s1" action="send" message="DNSResponse" replyToOrigin="true"/>
</Automaton>`

// Automata maps model name to automaton document. Names carry the role
// because the same protocol behaves differently depending on which
// side of it the bridge plays.
var Automata = map[string]string{
	"slp-server":  SLPServerAutomaton,
	"slp-client":  SLPClientAutomaton,
	"ssdp-client": SSDPClientAutomaton,
	"ssdp-server": SSDPServerAutomaton,
	"http-client": HTTPClientAutomaton,
	"http-server": HTTPServerAutomaton,
	"mdns-client": MDNSClientAutomaton,
	"mdns-server": MDNSServerAutomaton,
}
