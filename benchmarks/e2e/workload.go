package main

import (
	"context"
	_ "embed"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"time"

	"starlink"
	"starlink/internal/netapi"
	"starlink/internal/protocols/dnssd"
	"starlink/internal/protocols/slp"
	"starlink/internal/protocols/ssdp"
	"starlink/internal/protocols/upnp"
)

// The hot-loadable slp-to-upnp-alt case (unicast SLP entry on :1427),
// copied from examples/models so the benchmark owns its inputs.
var (
	//go:embed models/slp-server-alt.xml
	altAutomatonXML string
	//go:embed models/slp-to-upnp-alt.xml
	altMergedXML string
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name string
	why  string
	// sim runs on the virtual-clock simulator instead of loopback sockets.
	sim bool
	// cases: one deploys a single-case bridge, several a dispatcher.
	cases []string
	// mix is one block of the op sequence, which the seed shuffles; nil
	// is all multicast SLP lookups.
	mix []opKind
	// descriptionPad grows the UPnP device description to about this
	// many bytes.
	descriptionPad int
	// opts are deployment options the workload needs.
	opts []starlink.Option
}

// Every workload is a closed loop with one interaction outstanding, and
// the whole process runs on one P (main sets GOMAXPROCS to 1). The issue
// asked for an open loop on dispatch_mix; on the shared 2-vCPU capture
// host an open loop's p50 moved tenfold between runs of one commit (a
// neighbour's burst becomes a backlog that every later op waits
// behind), and with more than one P the closed loops' medians moved by
// a third, because an interaction's latency then depends on which vCPU
// each wake-up lands on. One P and one outstanding interaction measure
// the length of the path — CPU work and system calls — which is what a
// change to the bridge moves. main also pins the process to one CPU
// (pinToOneCPU), so the path does not depend on how many cores the host
// has free for the threads that block in the kernel.

var workloads = []*workload{
	{
		name:  "bridge_udp",
		why:   "smallest packets, binary dialects, one session and one requester socket per interaction: per-packet transport and per-session engine cost dominate, codecs do little",
		cases: []string{"slp-to-bonjour"},
	},
	{
		name:           "bridge_chain",
		why:            "the Fig. 4 chain SLP->SSDP->HTTP/TCP->SLP with a 4 KiB XML description: text parser, xmlbody, stream framer, dial-pool reuse and setHost do the work, so a codec change shows here and barely on bridge_udp",
		cases:          []string{"slp-to-upnp"},
		descriptionPad: 4096,
	},
	{
		name:  "dispatch_mix",
		why:   "five cases behind one dispatcher, a seeded mix with 20% off-path traffic: only here do classification, egress suppression, lanes and the reject paths work",
		cases: []string{"slp-to-bonjour", "slp-to-upnp", "upnp-to-bonjour", "bonjour-to-upnp", "slp-to-upnp-alt"},
		mix: []opKind{
			opSSDP, opSLP, opSLP, opSLP, opSLPAlt, // opSLP is ambiguous between slp-to-bonjour and slp-to-upnp by design
			opSSDP, opMDNS, opMDNS, opChatter, opMalformed,
		},
		descriptionPad: 4096,
		// A dispatcher hears its own sessions' multicast requests on its
		// shared entry listeners. It suppresses them while the requester
		// is in its egress table, but with two Ps about 1% were read
		// after the session ended and opened a session of their own. A
		// spurious upnp-to-bonjour session then waits for a description
		// GET nobody will send, pinning a requester socket for the whole
		// receive timeout, and steals the next client's GET when one
		// comes. At the 30 s default every one of them stays live for
		// the rest of the window; 250 ms bounds them, and the run charges
		// them to provision.spurious_sessions_per_1k instead of to
		// engine.failed. On one P none has been seen yet.
		opts: []starlink.Option{starlink.WithReceiveTimeout(250 * time.Millisecond)},
	},
}

// simControl is bridge_udp's interaction on the virtual-clock simulator:
// transport does no work and counts are exact, so a realnet change must
// move nothing here and an engine or codec change must. The issue made
// it a fourth workload. Its timings cannot carry a bound on a shared
// host: with no system calls in it, it allocates 800 MB/s and is as fast
// as the neighbours leave the memory system, which the host probe does
// not price (31 to 47 us at the p50 of its best intervals over ten runs
// of one commit, where the loopback workloads stayed within 4%). Every
// traced run measures it for the
// per-layer ledger (sim.*, engine.session_allocs, trace.recorder_*).
var simControl = &workload{name: "sim_udp", sim: true, cases: []string{"slp-to-bonjour"}}

// failedRatioCap is the share of ops that may fail before the run does.
// A single-case bridge loses nothing. A dispatcher has known races
// (README, "what the benchmark found") that the client's precautions
// make rare, not impossible, and the issue's cap of 0.001 stands.
func (w *workload) failedRatioCap() float64 {
	if len(w.cases) > 1 {
		return 0.001
	}
	return 0
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) hosts(suffix string) bool {
	for _, c := range w.cases {
		if strings.HasSuffix(c, suffix) || (suffix == "-to-upnp" && c == "slp-to-upnp-alt") {
			return true
		}
	}
	return false
}

// Simulated hosts; on loopback every node is 127.0.0.1 and these are
// labels.
const (
	bridgeHost  = "10.0.0.5"
	bonjourHost = "10.0.0.9"
	deviceHost  = "10.0.0.7"
	clientHost  = "10.0.0.1"
)

// env is one segment's world: a fresh runtime, registry, deployment,
// legacy services and client.
type env struct {
	w      *workload
	rt     *starlink.Runtime
	reg    *starlink.Registry
	dep    starlink.Deployment
	nodes  []netapi.Node
	client *client
	tap    *tap // nil unless traced

	goroutines0 int
	leases0     int64
}

// setup builds the world up to, but not including, the first
// interaction.
func setup(w *workload, traced bool, opts ...starlink.Option) (e *env, err error) {
	opts = append(append([]starlink.Option(nil), w.opts...), opts...)
	e = &env{w: w, goroutines0: runtime.NumGoroutine(), leases0: netapi.LeasedBuffers()}
	defer func() {
		if err != nil {
			e.abort()
		}
	}()
	if w.sim {
		e.rt = starlink.Simulated()
	} else {
		e.rt = starlink.Loopback()
	}
	fw, err := starlink.New(e.rt)
	if err != nil {
		return e, err
	}
	e.reg = fw.Registry()
	for _, c := range w.cases {
		if c == "slp-to-upnp-alt" {
			if err := fw.Registry().LoadAutomaton("slp-server-alt", altAutomatonXML); err != nil {
				return e, err
			}
			if err := fw.Registry().LoadMerged(altMergedXML); err != nil {
				return e, err
			}
		}
	}
	ctx := context.Background()
	if len(w.cases) == 1 {
		e.dep, err = fw.DeployBridge(ctx, bridgeHost, w.cases[0], opts...)
	} else {
		e.dep, err = fw.DeployDispatcher(ctx, bridgeHost, w.cases, opts...)
	}
	if err != nil {
		return e, portHint(err)
	}

	net := e.rt.Backend().(netapi.Runtime)
	newNode := func(ip string) (netapi.Node, error) {
		n, err := net.NewNode(ip)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, n)
		return n, nil
	}
	if traced {
		e.tap = &tap{}
	}
	// service wraps a legacy service's node in the traced run so the
	// benchmark sees when the service was asked and when it answered.
	service := func(n netapi.Node) netapi.Node {
		if e.tap == nil {
			return n
		}
		return &tapNode{Node: n, t: e.tap}
	}
	deviceIP := deviceHost
	if w.hosts("-to-bonjour") {
		n, err := newNode(bonjourHost)
		if err != nil {
			return e, err
		}
		if _, err := dnssd.NewResponder(service(n), dnsName, bonjourURL); err != nil {
			return e, err
		}
	}
	if w.hosts("-to-upnp") {
		n, err := newNode(deviceHost)
		if err != nil {
			return e, err
		}
		deviceIP = n.IP()
		pad := func(d *upnp.Device) {
			d.FriendlyName = "Starlink bench printer " + strings.Repeat("x", w.descriptionPad)
		}
		if _, err := upnp.NewDevice(service(n), upnpType, upnpURLBase, devicePort, pad); err != nil {
			return e, portHint(err)
		}
	}
	cn, err := newNode(clientHost)
	if err != nil {
		return e, err
	}
	bridgeIP := bridgeHost
	if !w.sim {
		bridgeIP = cn.IP()
	}
	e.client, err = newClient(cn, bridgeIP, deviceIP, traced)
	return e, err
}

// portHint names the fixed ports a loopback deployment binds when one
// of them is taken.
func portHint(err error) error {
	if errors.Is(err, syscall.EADDRINUSE) {
		return fmt.Errorf("%w\n  (loopback workloads bind fixed ports: TCP %d for the UPnP device, TCP %d and UDP %d for dispatch_mix; "+
			"the multicast groups on 427/1900/5353 are virtualised in-process and bind ephemeral ports — free the port or stop the other benchmark run)",
			err, devicePort, bridgeHTTPPort, altSLPPort)
	}
	return err
}

// abort releases a half-built world.
func (e *env) abort() {
	if e.dep != nil {
		_ = e.dep.Close()
	}
	for _, n := range e.nodes {
		_ = n.Close()
	}
}

// leaks is what a segment left behind after drain.
type leaks struct {
	Failed     int   // engine.failed
	Dropped    int   // engine.dropped
	Ignored    int   // engine.ignored
	LiveAfter  int   // engine.live_after
	Leases     int64 // netapi.leased_buffers_after
	Goroutines int   // goroutines_after
}

// lost is the work the engine gave up on that no failed op accounts for:
// sessions that failed beyond the excused ones, and payloads it dropped
// or ignored. Each counts as a failed op, against the same cap: none on
// a single-case bridge, and on a dispatcher the known races (README,
// "what the benchmark found") may cost what a lost datagram may.
func (l leaks) lost(excused int) int {
	return max(0, l.Failed-excused) + l.Dropped + l.Ignored
}

// err names the first thing still held after drain. Nothing excuses
// these: a session, buffer or goroutine that outlives its world is a
// leak at any rate.
func (l leaks) err() error {
	switch {
	case l.LiveAfter != 0:
		return fmt.Errorf("engine.live_after = %d: sessions still live after drain", l.LiveAfter)
	case l.Leases != 0:
		return fmt.Errorf("netapi.leased_buffers_after = %d above baseline", l.Leases)
	case l.Goroutines != 0:
		return fmt.Errorf("goroutines_after = %d above baseline", l.Goroutines)
	}
	return nil
}

// settle waits, for at most two seconds, until no session is live; what
// still is then shows as engine.live_after. It polls Sessions, not
// Metrics: a metrics snapshot rebuilds every histogram and would itself
// load the host.
func (e *env) settle() {
	idle := func() bool { return len(e.dep.Sessions()) == 0 }
	if e.w.sim {
		_ = e.rt.RunUntil(idle, 2*time.Second) // the simulator only runs inside RunUntil
		return
	}
	for deadline := time.Now().Add(2 * time.Second); !idle() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
}

// teardown closes everything and reports what was left behind; final is
// the deployment's metrics after settle.
func (e *env) teardown(final starlink.Metrics) leaks {
	l := leaks{
		Failed:    final.Sessions.Failed,
		Dropped:   final.Sessions.Dropped,
		Ignored:   final.Sessions.Ignored,
		LiveAfter: final.Sessions.Live,
	}
	if l.LiveAfter == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = e.dep.Shutdown(ctx)
		cancel()
	} else {
		_ = e.dep.Close() // nothing will finish the stuck sessions: do not wait for them
	}
	e.client.close()
	for _, n := range e.nodes {
		_ = n.Close()
	}
	// Read loops and session goroutines exit asynchronously after Close.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		l.Leases = max(0, netapi.LeasedBuffers()-e.leases0)
		l.Goroutines = max(0, runtime.NumGoroutine()-e.goroutines0)
		if l.Leases == 0 && l.Goroutines == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return l
}

// loadgen is the single generator goroutine. The seed fixes ids, mix
// order and noise bytes; the bridge only ever sees the datagrams.
type loadgen struct {
	e         *env
	rng       *rand.Rand
	sent      [numOpKinds]int // in the current window
	ever      [numOpKinds]int // since the segment began
	marks     []mark          // interval boundaries of the current window
	probes    []probeSample   // host probes taken in it
	nextMark  time.Duration   // since processStart
	nextProbe time.Duration
	block     []opKind // what is left of the current mix block
	lastWire  []byte   // the most recent op's datagram
}

func newLoadgen(e *env, seed int64) *loadgen {
	return &loadgen{e: e, rng: rand.New(rand.NewSource(seed))}
}

func (g *loadgen) reset() {
	g.sent = [numOpKinds]int{}
	g.marks, g.nextMark = nil, 0
	g.probes, g.nextProbe = nil, 0
}

// tick notes an interval boundary when one has passed, and probes the
// host when a probe is due.
func (g *loadgen) tick() error {
	now := time.Since(processStart)
	if now >= g.nextMark {
		g.marks = append(g.marks, mark{at: int64(now), cpu: cpuTime()})
		g.nextMark = now + intervalLen
	}
	if now >= g.nextProbe {
		took, whole, err := probeHost()
		if err != nil {
			return err
		}
		g.probes = append(g.probes, probeSample{at: int64(now), took: took, whole: whole})
		g.nextProbe = now + probeEvery
	}
	return nil
}

// countOps totals a per-kind op count, and the part that expects a
// reply.
func countOps(sent [numOpKinds]int) (total, expectingReply int) {
	for k, n := range sent {
		total += n
		if opKind(k).expectsReply() {
			expectingReply += n
		}
	}
	return total, expectingReply
}

// run generates load, one interaction at a time, until limit ops have
// been sent (limit > 0) or the window has passed. Off-path ops expect
// nothing back, so the next op follows them at once.
func (g *loadgen) run(limit int, window time.Duration) error {
	start := time.Now()
	for i := 0; limit == 0 || i < limit; i++ {
		if limit == 0 {
			if time.Since(start) >= window {
				break
			}
			if err := g.tick(); err != nil {
				return err
			}
		}
		o := g.next()
		g.sent[o.kind]++
		g.ever[o.kind]++
		g.lastWire = o.wire
		if err := g.e.client.start(g.acquire(o.kind), o); err != nil {
			return err
		}
		g.await(o)
	}
	return nil
}

// acquire takes the socket for the next op: the control point for an
// SSDP op, else the longest-idle source socket. With one op outstanding
// both lists always hold one.
func (g *loadgen) acquire(kind opKind) *clientSock {
	if kind == opSSDP {
		return <-g.e.client.point
	}
	return <-g.e.client.free
}

// await blocks until o completes or its deadline passes.
func (g *loadgen) await(o *op) {
	c := g.e.client
	if o.finished.Load() {
		return // off-path
	}
	if g.e.w.sim {
		if g.e.rt.RunUntil(o.finished.Load, opDeadline) != nil {
			c.expire()
		}
		return
	}
	timer := time.NewTimer(opDeadline)
	defer timer.Stop()
	for !o.finished.Load() {
		select {
		case <-c.done:
		case <-timer.C:
			c.expire()
			return
		}
	}
}

// next draws the next op from the workload's mix.
func (g *loadgen) next() *op {
	w := g.e.w
	kind := opSLP
	if w.mix != nil {
		if len(g.block) == 0 {
			g.block = append(g.block, w.mix...)
			g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		}
		kind, g.block = g.block[0], g.block[1:]
	}
	o := &op{kind: kind, id: 1 + g.rng.Intn(0xFFFF)}
	slpGroup := netapi.Addr{IP: slp.Group, Port: slp.Port}
	ssdpGroup := netapi.Addr{IP: ssdp.Group, Port: ssdp.Port}
	mdnsGroup := netapi.Addr{IP: dnssd.Group, Port: dnssd.Port}
	slpRequest := func() []byte {
		return (&slp.SrvRqst{Header: slp.Header{XID: o.id, LangTag: "en"}, ServiceType: slpType}).Marshal()
	}
	mdnsQuestion := func() []byte {
		b, _ := (&dnssd.Message{ID: o.id, Questions: []dnssd.Question{{Name: dnsName, QType: dnssd.TypePTR}}}).Marshal()
		return b // dnsName is a valid name: Marshal cannot fail
	}
	switch kind {
	case opSLP:
		o.to, o.wire = slpGroup, slpRequest()
		// A dispatcher resolves the ambiguous SLP lookup to the first
		// case by name, slp-to-bonjour.
		o.want = bonjourURL
		if !w.hosts("-to-bonjour") {
			o.want = upnpURLBase
		}
	case opSLPAlt:
		o.to, o.wire, o.want = netapi.Addr{IP: g.e.client.bridgeHTTP.IP, Port: altSLPPort}, slpRequest(), upnpURLBase
	case opSSDP:
		o.to, o.wire, o.want = ssdpGroup, ssdp.NewMSearch(upnpType, 1).Marshal(), bonjourURL
	case opMDNS:
		o.to, o.wire, o.want = mdnsGroup, mdnsQuestion(), upnpURLBase
	case opChatter:
		if g.rng.Intn(2) == 0 {
			notify := &ssdp.Message{Method: "NOTIFY", URI: "*", Version: "HTTP/1.1", Headers: map[string]string{
				"HOST": fmt.Sprintf("%s:%d", ssdp.Group, ssdp.Port), "NT": upnpType, "NTS": "ssdp:alive",
				"LOCATION": "http://10.0.0.77:80/desc.xml", "USN": fmt.Sprintf("uuid:chatter-%d", o.id),
			}}
			o.to, o.wire = ssdpGroup, notify.Marshal()
		} else {
			announce := &dnssd.Message{Flags: dnssd.FlagResp, Answers: []dnssd.Answer{{
				Name: fmt.Sprintf("chatter-%d.local", o.id), AType: dnssd.TypeTXT, TTL: 120, RDATA: "service:chatter://10.0.0.77:9",
			}}}
			b, _ := announce.Marshal() // fixed valid name
			o.to, o.wire = mdnsGroup, b
		}
	case opMalformed:
		// A request cut short, or noise, at any of the entries.
		var whole []byte
		switch g.rng.Intn(4) {
		case 0:
			o.to, whole = slpGroup, slpRequest()
		case 1:
			o.to, whole = netapi.Addr{IP: g.e.client.bridgeHTTP.IP, Port: altSLPPort}, slpRequest()
		case 2:
			o.to, whole = ssdpGroup, ssdp.NewMSearch(upnpType, 1).Marshal()
		default:
			o.to, whole = mdnsGroup, mdnsQuestion()
		}
		if g.rng.Intn(2) == 0 {
			// Cut inside the first token: the text dialects accept a
			// request that merely lost its tail (an M-SEARCH without
			// its blank line opens a session), and that leniency is not
			// what this op is for.
			o.wire = whole[:1+g.rng.Intn(7)]
		} else {
			// Short printable noise: no SLP version, no SSDP method, and
			// as DNS every label length overruns the datagram.
			o.wire = []byte(fmt.Sprintf("noise-%016x", g.rng.Uint64())[:6+g.rng.Intn(16)])
		}
	}
	return o
}
