package main

import (
	"fmt"
	"time"

	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/upnp"
	"starlink/internal/realnet"

	"starlink"
)

// Demo service identities — the paper's printer case study, matching
// the translation logic of the builtin merged automata.
const (
	demoSLPType    = "service:printer"
	demoUPnPType   = "urn:printer"
	demoDNSName    = "printer.local"
	demoServiceURL = "service:printer://10.0.0.9:515"
	demoHTTPPort   = 5431
)

// demoRoundTimeout bounds how long one round waits for its lookups.
const demoRoundTimeout = 15 * time.Second

// runDemo drives example traffic through the hosted cases over the
// in-process loopback network: legacy services are started once, then
// each round runs an SLP lookup, a UPnP discovery and a Bonjour browse
// against the shared entry listeners, a raw unicast SLP request
// against the slp-to-upnp-alt entry when that case is hosted, and one
// deliberately malformed datagram so the parse-error counters move.
// Lookups that time out are logged, not fatal — the point is moving
// the metrics surface, and partial traffic still does. The demo's
// nodes close when it returns, so it can run again in one process.
func runDemo(rt *starlink.Runtime, host string, rounds int, hosted []string) error {
	net, ok := rt.Backend().(*realnet.Runtime)
	if !ok {
		return fmt.Errorf("demo traffic needs the loopback runtime")
	}

	// Legacy services, one node each. They answer the bridged requests:
	// the UPnP printer serves slp-to-upnp / bonjour-to-upnp, the
	// Bonjour responder serves slp-to-bonjour / upnp-to-bonjour, the
	// SLP service agent serves upnp-to-slp / bonjour-to-slp.
	upnpNode, err := net.NewNode("demo-upnp-device")
	if err != nil {
		return err
	}
	defer upnpNode.Close()
	if _, err := upnp.NewDevice(upnpNode, demoUPnPType, demoServiceURL, demoHTTPPort); err != nil {
		return err
	}
	bonjourNode, err := net.NewNode("demo-bonjour-service")
	if err != nil {
		return err
	}
	defer bonjourNode.Close()
	if _, err := dnssd.NewResponder(bonjourNode, demoDNSName, demoServiceURL); err != nil {
		return err
	}
	slpNode, err := net.NewNode("demo-slp-service")
	if err != nil {
		return err
	}
	defer slpNode.Close()
	if _, err := slp.NewServiceAgent(slpNode, demoSLPType, demoServiceURL); err != nil {
		return err
	}

	altHosted := false
	for _, c := range hosted {
		if c == "slp-to-upnp-alt" {
			altHosted = true
		}
	}
	// The raw SrvRequest the slp-to-upnp-alt entry (unicast :1427)
	// expects: what a native user agent sends to the multicast entry.
	altWire := (&slp.SrvRqst{Header: slp.Header{XID: 99, LangTag: "en"}, ServiceType: demoSLPType}).Marshal()

	cliNode, err := net.NewNode("demo-client")
	if err != nil {
		return err
	}
	defer cliNode.Close()
	// rawSock carries the alt-case unicast request and the malformed
	// datagram; replies are counted, not decoded.
	altReplies := 0
	rawSock, err := cliNode.OpenUDP(0, func(netapi.Packet) { altReplies++ })
	if err != nil {
		return err
	}

	for round := 1; round <= rounds; round++ {
		fmt.Printf("starlinkd: demo round %d/%d\n", round, rounds)
		done := make(chan string, 4)
		expect := 3

		ua := slp.NewUserAgent(cliNode, slp.WithConvergenceWait(time.Second))
		ua.Lookup(demoSLPType, func(r slp.LookupResult) {
			done <- fmt.Sprintf("slp lookup: %d url(s)", len(r.URLs))
		})
		cp := upnp.NewControlPoint(cliNode, upnp.WithMX(time.Second))
		cp.Discover(demoUPnPType, func(r upnp.DiscoverResult) {
			done <- fmt.Sprintf("upnp discovery: %d url(s)", len(r.ServiceURLs))
		})
		br := dnssd.NewBrowser(cliNode, dnssd.WithBrowseWindow(time.Second))
		br.Browse(demoDNSName, func(r dnssd.BrowseResult) {
			done <- fmt.Sprintf("bonjour browse: %d url(s)", len(r.URLs))
		})

		if altHosted {
			if err := rawSock.Send(netapi.Addr{IP: host, Port: 1427}, altWire); err != nil {
				return fmt.Errorf("alt request: %w", err)
			}
		}
		// One malformed datagram to the shared SLP entry listener: no
		// candidate parser accepts it, so it lands in the dispatcher's
		// parse-error counter (and nowhere else).
		garbage := []byte("starlinkd demo: deliberately not a legacy protocol payload")
		if err := rawSock.Send(netapi.Addr{IP: slp.Group, Port: slp.Port}, garbage); err != nil {
			return fmt.Errorf("malformed datagram: %w", err)
		}

		deadline := time.After(demoRoundTimeout)
		for i := 0; i < expect; i++ {
			select {
			case msg := <-done:
				fmt.Printf("starlinkd: demo %s\n", msg)
			case <-deadline:
				fmt.Printf("starlinkd: demo round %d timed out waiting for lookups\n", round)
				i = expect
			}
		}
	}
	if altHosted {
		// The alt reply is asynchronous to the lookups; give it a beat.
		time.Sleep(200 * time.Millisecond)
		fmt.Printf("starlinkd: demo alt-case replies: %d\n", altReplies)
	}
	return nil
}
