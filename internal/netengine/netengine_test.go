package netengine

import (
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"starlink/internal/automata"
	"starlink/internal/mdl"
	"starlink/internal/netapi"
	"starlink/internal/parser"
	"starlink/internal/simnet"
)

func color(attrs ...automata.Attr) automata.Color { return automata.NewColor(attrs...) }

func udpMulticastColor(group string, port string) automata.Color {
	return color(
		automata.Attr{Key: automata.AttrTransport, Value: "udp"},
		automata.Attr{Key: automata.AttrPort, Value: port},
		automata.Attr{Key: automata.AttrMulticast, Value: "yes"},
		automata.Attr{Key: automata.AttrGroup, Value: group},
	)
}

func TestSchemeOf(t *testing.T) {
	s, err := SchemeOf(udpMulticastColor("239.1.2.3", "427"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Transport != "udp" || !s.Multicast || s.Group != "239.1.2.3" || s.Port != 427 {
		t.Fatalf("s = %+v", s)
	}
	// Convergence attribute.
	c := color(
		automata.Attr{Key: automata.AttrTransport, Value: "udp"},
		automata.Attr{Key: automata.AttrMulticast, Value: "yes"},
		automata.Attr{Key: automata.AttrGroup, Value: "239.1.1.1"},
		automata.Attr{Key: "convergence", Value: "6250"},
	)
	s, err = SchemeOf(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Convergence != 6250*time.Millisecond {
		t.Fatalf("convergence = %v", s.Convergence)
	}
	// Errors.
	if _, err := SchemeOf(color(automata.Attr{Key: automata.AttrTransport, Value: "carrier-pigeon"})); err == nil {
		t.Fatal("bad transport should fail")
	}
	if _, err := SchemeOf(color(automata.Attr{Key: automata.AttrMulticast, Value: "yes"})); err == nil {
		t.Fatal("multicast without group should fail")
	}
	// Default transport is udp.
	s, err = SchemeOf(color(automata.Attr{Key: automata.AttrPort, Value: "9"}))
	if err != nil || s.Transport != "udp" {
		t.Fatalf("s = %+v err = %v", s, err)
	}
}

func TestListenMulticastAndReply(t *testing.T) {
	sim := simnet.New()
	bridgeNode, _ := sim.NewNode("10.0.0.5")
	cliNode, _ := sim.NewNode("10.0.0.1")
	e := New(bridgeNode)
	if e.Node() != bridgeNode {
		t.Fatal("Node() broken")
	}

	var got string
	closer, err := e.Listen(udpMulticastColor("239.9.9.9", "500"), nil, func(data []byte, src Source, lease *netapi.Buffer) {
		got = string(data)
		if err := src.Reply([]byte("pong")); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	var reply string
	sock, _ := cliNode.OpenUDP(0, func(p netapi.Packet) { reply = string(p.Data) })
	if err := sock.Send(netapi.Addr{IP: "239.9.9.9", Port: 500}, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if got != "ping" || reply != "pong" {
		t.Fatalf("got=%q reply=%q", got, reply)
	}
}

func TestListenPlainUDP(t *testing.T) {
	sim := simnet.New()
	bridgeNode, _ := sim.NewNode("10.0.0.5")
	cliNode, _ := sim.NewNode("10.0.0.1")
	e := New(bridgeNode)
	c := color(
		automata.Attr{Key: automata.AttrTransport, Value: "udp"},
		automata.Attr{Key: automata.AttrPort, Value: "4100"},
		automata.Attr{Key: automata.AttrMulticast, Value: "no"},
	)
	var got string
	if _, err := e.Listen(c, nil, func(data []byte, src Source, lease *netapi.Buffer) { got = string(data) }); err != nil {
		t.Fatal(err)
	}
	sock, _ := cliNode.OpenUDP(0, func(netapi.Packet) {})
	if err := sock.Send(netapi.Addr{IP: "10.0.0.5", Port: 4100}, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if got != "direct" {
		t.Fatalf("got = %q", got)
	}
}

const httpSpec = `
<MDL protocol="HTTP" dialect="text">
 <Types><Method>String</Method><URI>String</URI><Version>String</Version></Types>
 <Header type="HTTP"><Method>32</Method><URI>32</URI><Version>13,10</Version><Fields>13,10:58</Fields></Header>
 <Message type="HTTPGet"><Rule>Method=GET</Rule></Message>
 <Message type="HTTPOk" body="raw"><Rule>Method=HTTP/1.1</Rule></Message>
</MDL>`

func tcpColor(port string) automata.Color {
	return color(
		automata.Attr{Key: automata.AttrTransport, Value: "tcp"},
		automata.Attr{Key: automata.AttrPort, Value: port},
		automata.Attr{Key: automata.AttrMulticast, Value: "no"},
	)
}

func TestTCPListenAndRequesterFraming(t *testing.T) {
	sim := simnet.New()
	bridgeNode, _ := sim.NewNode("10.0.0.5")
	cliNode, _ := sim.NewNode("10.0.0.1")
	spec, err := mdl.ParseXMLString(httpSpec)
	if err != nil {
		t.Fatal(err)
	}
	framer, err := parser.NewFramer(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Bridge-side TCP listener answering framed GETs.
	srv := New(bridgeNode)
	served := 0
	if _, err := srv.Listen(tcpColor("8080"), framer, func(data []byte, src Source, lease *netapi.Buffer) {
		served++
		if err := src.Reply([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi")); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Client-side requester dialing the listener.
	cli := New(cliNode)
	var response string
	req, err := cli.NewRequester(tcpColor("8080"), netapi.Addr{IP: "10.0.0.5", Port: 8080}, framer,
		func(data []byte, src Source, lease *netapi.Buffer) { response = string(data) })
	if err != nil {
		t.Fatal(err)
	}
	defer req.Close()
	if err := req.Send([]byte("GET /x HTTP/1.1\r\nHost: b\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if served != 1 {
		t.Fatalf("served = %d", served)
	}
	if !strings.Contains(response, "200 OK") || !strings.HasSuffix(response, "hi") {
		t.Fatalf("response = %q", response)
	}
}

func TestTCPListenerNeedsFramer(t *testing.T) {
	sim := simnet.New()
	n, _ := sim.NewNode("10.0.0.5")
	e := New(n)
	if _, err := e.Listen(tcpColor("8081"), nil, func([]byte, Source, *netapi.Buffer) {}); err == nil {
		t.Fatal("tcp listen without framer should fail")
	}
	if _, err := e.NewRequester(tcpColor("8081"), netapi.Addr{IP: "10.0.0.5", Port: 8081}, nil, func([]byte, Source, *netapi.Buffer) {}); err == nil {
		t.Fatal("tcp requester without framer should fail")
	}
}

func TestRequesterUDPMulticastDefaultDest(t *testing.T) {
	sim := simnet.New()
	bridgeNode, _ := sim.NewNode("10.0.0.5")
	memberNode, _ := sim.NewNode("10.0.0.9")
	var got string
	var member netapi.UDPSocket
	member, err := memberNode.JoinGroup(netapi.Addr{IP: "239.5.5.5", Port: 700}, func(p netapi.Packet) {
		got = string(p.Data)
		_ = member.Send(p.From, []byte("resp"))
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(bridgeNode)
	var resp string
	r, err := e.NewRequester(udpMulticastColor("239.5.5.5", "700"), netapi.Addr{}, nil,
		func(data []byte, src Source, lease *netapi.Buffer) { resp = string(data) })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Send([]byte("query")); err != nil {
		t.Fatal(err)
	}
	sim.RunToQuiescence()
	if got != "query" || resp != "resp" {
		t.Fatalf("got=%q resp=%q", got, resp)
	}
}

func TestRequesterUDPUnicastNeedsDest(t *testing.T) {
	sim := simnet.New()
	n, _ := sim.NewNode("10.0.0.5")
	e := New(n)
	c := color(
		automata.Attr{Key: automata.AttrTransport, Value: "udp"},
		automata.Attr{Key: automata.AttrMulticast, Value: "no"},
	)
	if _, err := e.NewRequester(c, netapi.Addr{}, nil, func([]byte, Source, *netapi.Buffer) {}); err == nil {
		t.Fatal("unicast requester without dest should fail")
	}
}

func TestTCPRequesterConnectionRefused(t *testing.T) {
	sim := simnet.New()
	n, _ := sim.NewNode("10.0.0.5")
	spec, _ := mdl.ParseXMLString(httpSpec)
	framer, _ := parser.NewFramer(spec)
	e := New(n)
	if _, err := e.NewRequester(tcpColor("1"), netapi.Addr{IP: "10.0.0.99", Port: 1}, framer, func([]byte, Source, *netapi.Buffer) {}); err == nil {
		t.Fatal("dial to nowhere should fail")
	}
}

// The egress table holds a requester's address from Add to Remove, and
// only that address: the same port on another IP is someone else. After
// the host IP's first socket an entry is a bit, so parking thousands of
// sessions' requesters in it costs no heap.
func TestEgressTableHoldsRequesterAddresses(t *testing.T) {
	sim := simnet.New()
	n, _ := sim.NewNode("10.0.0.5")
	e := New(n)
	var reqs [2]*Requester
	for i := range reqs {
		r, err := e.NewRequester(udpMulticastColor("239.5.5.5", "700"), netapi.Addr{}, nil, func([]byte, Source, *netapi.Buffer) {})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reqs[i] = r
	}
	from := func(r *Requester) Source { return Source{Addr: r.sock.LocalAddr()} }
	tab := NewEgressTable()
	tab.Add(reqs[0])
	tab.Add(reqs[1])
	other := from(reqs[0])
	other.Addr.IP = "10.0.0.6"
	if !tab.Contains(from(reqs[0])) || !tab.Contains(from(reqs[1])) || tab.Contains(other) {
		t.Fatalf("contains %v, %v, %v; want true, true, false",
			tab.Contains(from(reqs[0])), tab.Contains(from(reqs[1])), tab.Contains(other))
	}
	tab.Remove(reqs[0])
	if tab.Contains(from(reqs[0])) || !tab.Contains(from(reqs[1])) {
		t.Fatal("Remove dropped the wrong address")
	}
	if n := testing.AllocsPerRun(100, func() { tab.Add(reqs[0]); tab.Remove(reqs[0]) }); n != 0 {
		t.Errorf("an entry allocates %.1f times", n)
	}
}

func TestSourceReplyUnknown(t *testing.T) {
	var s Source
	if err := s.Reply([]byte("x")); err == nil {
		t.Fatal("empty source reply should fail")
	}
}

// A routing key compares as a value, is built without allocating, and
// hashes as FNV-1a over "colorKey|ip:port": the hash picks the worker
// whose lent sockets a session borrows, so it decides a simulated run's
// trace.
func TestRoutingKeyIsAValue(t *testing.T) {
	c1, c2 := udpMulticastColor("239.255.255.253", "427"), udpMulticastColor("224.0.0.251", "5353")
	src := func(c automata.Color, ip string, port int) Source {
		return Source{Addr: netapi.Addr{IP: ip, Port: port}, color: colorOf(c)}
	}
	a := src(c1, "10.0.0.7", 40001)
	if a.RoutingKey() != src(c1, "10.0.0.7", 40001).RoutingKey() {
		t.Error("one color and peer give two keys")
	}
	for _, b := range []Source{src(c2, "10.0.0.7", 40001), src(c1, "10.0.0.8", 40001), src(c1, "10.0.0.7", 40002)} {
		if a.RoutingKey() == b.RoutingKey() {
			t.Errorf("%v and %v share a key", a.RoutingKey(), b.RoutingKey())
		}
	}
	h := fnv.New32a()
	h.Write([]byte(c1.Key() + "|" + a.Addr.String()))
	if got, want := a.RoutingKey().Hash(), h.Sum32(); got != want {
		t.Errorf("Hash = %#x, want FNV-1a of the key text %#x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.RoutingKey() }); n != 0 {
		t.Errorf("RoutingKey allocates %.1f times", n)
	}
	if colorOf(c1).digest != c1.Hash64() {
		t.Error("a color's digest is not its Hash64")
	}
	if n := testing.AllocsPerRun(100, func() { _ = colorOf(c1) }); n != 0 {
		t.Errorf("colorOf allocates %.1f times", n)
	}
}
