package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"starlink"
	"starlink/internal/lanes"
	"starlink/internal/merge"
	"starlink/internal/message"
	"starlink/internal/netapi"
	"starlink/internal/netengine"
	"starlink/internal/realnet"
	"starlink/internal/registry"
	"starlink/internal/translation"
)

// The per-layer ledger. Every number here is taken from outside the
// program: a timed call into a package's public functions on wire
// messages captured from a run, or a delta of the public
// Deployment.Metrics() snapshot — the surface production scrapes.

// cost is the steady-state price of one call.
type cost struct{ ns, allocs, bytes float64 }

// price runs fn n times after one warming call, in priceBatches batches,
// and takes the median batch for the time: on one P a collection that
// starts inside the loop takes a quarter of the CPU for a few
// milliseconds, which is the whole of a 2000-call loop. Mallocs is
// process-wide, so callers keep the process otherwise idle.
func price(n int, fn func()) cost {
	fn()
	per := make([]float64, priceBatches)
	batch := n / priceBatches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(batch)
	}
	runtime.ReadMemStats(&m1)
	calls := float64(batch * priceBatches)
	return cost{
		ns:     summarize(per).med,
		allocs: float64(m1.Mallocs-m0.Mallocs) / calls,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / calls,
	}
}

const priceBatches = 10

// replayCases are the two programs whose messages the ledger prices;
// between them they use every codec of the four dialects.
var replayCases = []string{"slp-to-bonjour", "slp-to-upnp"}

// captureWires runs one interaction of the case on the simulator with
// the service tapped and returns the wire form of every message the
// bridge receives, keyed by abstract message name: the client's request,
// then the service's answers in order.
func captureWires(caseName string) (map[string][]byte, error) {
	w := &workload{name: "capture:" + caseName, sim: true, cases: []string{caseName}, descriptionPad: 4096}
	e, err := setup(w, true)
	if err != nil {
		return nil, err
	}
	defer e.abort()
	g := newLoadgen(e, 1)
	if err := g.run(1, 0); err != nil {
		return nil, err
	}
	if e.client.verified != 1 {
		return nil, fmt.Errorf("capture %s: interaction not verified (%s)", caseName, e.client.lastError)
	}
	c, err := backendRegistry(e).Compiled(caseName)
	if err != nil {
		return nil, err
	}
	var answers [][]byte
	for _, ev := range e.tap.snapshot() {
		if ev.send {
			answers = append(answers, ev.data)
		}
	}
	wires := map[string][]byte{}
	for _, st := range c.Program {
		if st.Kind != merge.StepRecv {
			continue
		}
		switch {
		case len(wires) == 0:
			wires[st.Message] = g.lastWire
		case len(answers) > 0:
			wires[st.Message], answers = answers[0], answers[1:]
		default:
			return nil, fmt.Errorf("capture %s: no wire captured for %s", caseName, st.Message)
		}
	}
	return wires, nil
}

// backendRegistry reaches the model store behind a world's framework.
func backendRegistry(e *env) *registry.Registry { return e.reg.Backend().(*registry.Registry) }

// replayStep is one codec or translation call of a replayed program.
type replayStep struct {
	layer string // "parse", "frame", "apply" or "compose"
	msg   string
	call  func()
}

// replay walks the compiled program the way a session does — parse what
// is received, apply the translation logic to what is sent, compose it —
// on the captured wires, and hands each call to visit. The history a
// later step reads is built by the earlier ones, exactly as in a session.
func replay(c *registry.CompiledCase, wires map[string][]byte, visit func(replayStep)) error {
	history := map[string]*message.Message{}
	defer func() {
		for _, m := range history {
			m.Release()
		}
	}()
	env := translation.Env{
		Lookup: func(name string) *message.Message { return history[name] },
		Vars:   map[string]string{"bridge.host": bridgeHost},
	}
	funcs := translation.NewFuncRegistry()
	var failed error
	for _, st := range c.Program {
		if st.Kind == merge.StepDelta {
			continue
		}
		st := st
		codec := c.Codecs[st.Protocol]
		if st.Kind == merge.StepRecv {
			wire := wires[st.Message]
			if scheme, err := netengine.SchemeOf(st.Color); err == nil && scheme.Transport == "tcp" {
				visit(replayStep{"frame", st.Message, func() {
					if n, err := codec.Framer.Frame(wire); err != nil || n != len(wire) {
						failed = fmt.Errorf("replay: frame %s: %d of %d bytes, %v", st.Message, n, len(wire), err)
					}
				}})
			}
			visit(replayStep{"parse", st.Message, func() {
				m, err := codec.Parser.Parse(wire)
				if err != nil {
					failed = fmt.Errorf("replay: parse %s: %w", st.Message, err)
					return
				}
				m.Release()
			}})
			m, err := codec.Parser.Parse(wire)
			if err != nil {
				return fmt.Errorf("replay: parse %s: %w", st.Message, err)
			}
			history[st.Message] = m
			continue
		}
		visit(replayStep{"apply", st.Message, func() {
			out := message.NewPooled(st.Protocol, st.Message)
			if err := c.Merged.Logic.Apply(out, env, funcs); err != nil {
				failed = fmt.Errorf("replay: apply %s: %w", st.Message, err)
			}
			out.Release()
		}})
		out := message.NewPooled(st.Protocol, st.Message)
		if err := c.Merged.Logic.Apply(out, env, funcs); err != nil {
			out.Release()
			return fmt.Errorf("replay: apply %s: %w", st.Message, err)
		}
		history[st.Message] = out
		visit(replayStep{"compose", st.Message, func() {
			if _, err := codec.Composer.Compose(out); err != nil {
				failed = fmt.Errorf("replay: compose %s: %w", st.Message, err)
			}
		}})
		if failed != nil {
			return failed
		}
	}
	return failed
}

// replayCorpus is what the ledger replays: per case, the compiled
// program and the captured wires.
type replayCorpus map[string]replayCase

type replayCase struct {
	compiled *registry.CompiledCase
	wires    map[string][]byte
}

func buildCorpus() (replayCorpus, error) {
	reg, err := registry.Builtin()
	if err != nil {
		return nil, err
	}
	corpus := replayCorpus{}
	for _, name := range replayCases {
		wires, err := captureWires(name)
		if err != nil {
			return nil, err
		}
		c, err := reg.Compiled(name)
		if err != nil {
			return nil, err
		}
		corpus[name] = replayCase{c, wires}
	}
	return corpus, nil
}

// layerOf maps a replay layer to the package it prices.
var layerOf = map[string]string{"parse": "parser.parse", "frame": "parser.frame", "apply": "translation.apply", "compose": "composer.compose"}

// codecLedger prices every replayed call and returns the rows by metric
// name plus, per case, the allocations the codecs and the translation
// logic make in one interaction.
func codecLedger(corpus replayCorpus, out map[string]metric) (perCase map[string]cost, err error) {
	perCase = map[string]cost{}
	for _, name := range replayCases {
		rc := corpus[name]
		err := replay(rc.compiled, rc.wires, func(s replayStep) {
			c := price(2000, s.call)
			sum := perCase[name]
			sum.allocs += c.allocs
			sum.bytes += c.bytes
			perCase[name] = sum
			prefix := layerOf[s.layer]
			out[prefix+"_ns."+s.msg] = metric{c.ns, "ns"}
			if s.layer != "frame" {
				out[prefix+"_allocs."+s.msg] = metric{c.allocs, "count"}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return perCase, nil
}

// engineLedger turns a segment's Metrics() deltas into the transport,
// lane, dispatch and engine rows.
func engineLedger(seg *segment, out map[string]metric) {
	a, b := seg.before, seg.after
	n := float64(seg.verified)
	dt := func(f func(starlink.TransportMetrics) uint64) float64 {
		return float64(f(b.Transport) - f(a.Transport))
	}
	recvCalls := dt(func(t starlink.TransportMetrics) uint64 { return t.RecvBatches + t.RecvSingles })
	out["realnet.recv_wakeups_per_interaction"] = metric{ratio(recvCalls, n), "count"}
	out["realnet.recv_mean_batch"] = metric{ratio(
		dt(func(t starlink.TransportMetrics) uint64 { return t.RecvBatchPackets + t.RecvSingles }), recvCalls), "count"}
	out["realnet.send_syscalls_per_interaction"] = metric{ratio(
		dt(func(t starlink.TransportMetrics) uint64 { return t.SendBatches + t.SendSingles + t.StreamFlushes }), n), "count"}

	mean := func(after, before starlink.StageLatency) float64 {
		return ratio(float64(after.Sum-before.Sum), float64(after.Count-before.Count))
	}
	var shed, deferred int
	for i, l := range b.Lanes {
		var prev starlink.LaneMetrics
		if i < len(a.Lanes) {
			prev = a.Lanes[i]
		}
		shed += l.Shed - prev.Shed
		deferred += l.Deferred - prev.Deferred
		switch l.Lane {
		case "control":
			out["lanes.wait_mean_us.control"] = metric{mean(l.Wait, prev.Wait) / 1e3, "us"}
			out["lanes.wait_p99_us.control"] = metric{us(int64(l.Wait.P99)), "us"}
		case "data":
			out["lanes.wait_mean_us.data"] = metric{mean(l.Wait, prev.Wait) / 1e3, "us"}
		}
	}
	out["lanes.shed"] = metric{float64(shed), "count"}
	out["lanes.deferred"] = metric{float64(deferred), "count"}

	da, db := a.Dispatch, b.Dispatch
	per1k := func(d int) metric { return metric{ratio(1000*float64(d), float64(seg.attempted)), "1/1000"} }
	classified := float64(db.FastPath - da.FastPath + db.SlowPath - da.SlowPath)
	out["provision.classify_fast_mean_ns"] = metric{mean(db.FastPathLatency, da.FastPathLatency), "ns"}
	out["provision.classify_fast_share"] = metric{ratio(float64(db.FastPath-da.FastPath), classified), "ratio"}
	out["provision.ambiguous_per_1k"] = per1k(db.Ambiguous - da.Ambiguous)
	out["provision.suppressed_per_1k"] = per1k(db.Suppressed - da.Suppressed)
	out["provision.unroutable_per_1k"] = per1k(db.Unroutable - da.Unroutable)
	out["provision.parse_errors_per_1k"] = per1k(db.ParseErrors - da.ParseErrors)
	spurious := 0
	for _, s := range seg.spurious {
		spurious += s
	}
	out["provision.spurious_sessions_per_1k"] = metric{ratio(1000*float64(spurious), float64(seg.everExpecting)), "1/1000"}

	rows := func(m starlink.Metrics) map[string]starlink.StageLatency {
		r := map[string]starlink.StageLatency{}
		for _, l := range m.Latency {
			r[l.Stage] = l
		}
		return r
	}
	ra, rb := rows(a), rows(b)
	sessions := float64(rb["session"].Count - ra["session"].Count)
	var staged float64
	for _, stage := range []string{"recv", "parse", "transition", "translate", "compose", "send"} {
		out["engine.stage_mean_ns."+stage] = metric{mean(rb[stage], ra[stage]), "ns"}
		staged += float64(rb[stage].Sum - ra[stage].Sum)
	}
	sessionMean := mean(rb["session"], ra["session"])
	out["engine.session_mean_us"] = metric{sessionMean / 1e3, "us"}
	out["engine.session_p99_us"] = metric{us(int64(rb["session"].P99)), "us"}
	// What a session spends outside its timed stages: inbox hand-offs,
	// goroutine wake-ups, requester set-up, and the peer's service time.
	out["engine.unattributed_us"] = metric{(sessionMean - ratio(staged, sessions)) / 1e3, "us"}

	l := seg.leaks
	out["engine.failed"] = metric{float64(l.Failed), "count"}
	out["engine.dropped"] = metric{float64(l.Dropped), "count"}
	out["engine.ignored"] = metric{float64(l.Ignored), "count"}
	out["engine.live_after"] = metric{float64(l.LiveAfter), "count"}
	out["netapi.leased_buffers_after"] = metric{float64(l.Leases), "count"}
	out["goroutines_after"] = metric{float64(l.Goroutines), "count"}
	out["client.get_retries"] = metric{float64(seg.retries), "count"}
	out["client.duplicate_replies"] = metric{float64(seg.duplicate), "count"}
	out["client.native_answers_per_1k"] = per1k(seg.native)
}

// echoFloors measures the forwarding floor: a raw netapi round trip over
// loopback with no bridge in the path, UDP and TCP.
func echoFloors(out map[string]metric) error {
	const rounds = 3000
	rt := realnet.New()
	a, _ := rt.NewNode("echo-server") // realnet.NewNode cannot fail
	b, _ := rt.NewNode("echo-client")
	defer a.Close()
	defer b.Close()
	got := make(chan struct{}, 1)
	roundTrips := func(send func() error) (float64, error) {
		lat := make([]int64, 0, rounds)
		for i := 0; i < rounds+100; i++ {
			t0 := time.Now()
			if err := send(); err != nil {
				return 0, err
			}
			select {
			case <-got:
			case <-time.After(opDeadline):
				return 0, fmt.Errorf("echo: no reply within %s", opDeadline)
			}
			if i >= 100 {
				lat = append(lat, int64(time.Since(t0)))
			}
		}
		slices.Sort(lat)
		return us(quantileNS(lat, 0.5)), nil
	}
	payload := make([]byte, 39) // the size of the SLP request

	var server netapi.UDPSocket
	ready := make(chan struct{})
	server, err := a.OpenUDP(0, func(pkt netapi.Packet) {
		<-ready
		_ = server.Send(pkt.From, pkt.Data)
	})
	if err != nil {
		return err
	}
	close(ready)
	client, err := b.OpenUDP(0, func(netapi.Packet) { got <- struct{}{} })
	if err != nil {
		return err
	}
	p50, err := roundTrips(func() error { return client.Send(server.LocalAddr(), payload) })
	if err != nil {
		return err
	}
	out["realnet.udp_echo_p50_us"] = metric{p50, "us"}

	ln, err := a.ListenStream(0, nil, func(c netapi.Conn, data []byte) {
		if data != nil {
			_ = c.Send(data)
		}
	})
	if err != nil {
		return err
	}
	addr, ok := ln.(interface{ Addr() netapi.Addr })
	if !ok {
		return fmt.Errorf("echo: realnet listener does not report its address")
	}
	conn, err := b.DialStream(addr.Addr(), func(_ netapi.Conn, data []byte) {
		if data != nil {
			got <- struct{}{}
		}
	})
	if err != nil {
		return err
	}
	p50, err = roundTrips(func() error { return conn.Send(payload) })
	if err != nil {
		return err
	}
	out["realnet.tcp_echo_p50_us"] = metric{p50, "us"}
	return nil
}

// requesterCost times what every bridge_udp session pays once: opening
// and closing the mDNS requester socket.
func requesterCost(corpus replayCorpus, out map[string]metric) error {
	rt := realnet.New()
	node, _ := rt.NewNode("requester-probe")
	defer node.Close()
	ne := netengine.New(node)
	for _, st := range corpus["slp-to-bonjour"].compiled.Program {
		if st.Kind == merge.StepSend && st.Protocol == "mDNS" {
			var openErr error
			c := price(500, func() {
				r, err := ne.NewRequester(st.Color, netapi.Addr{}, nil, func([]byte, netengine.Source, *netapi.Buffer) {})
				if err != nil {
					openErr = err
					return
				}
				_ = r.Close()
			})
			out["netengine.requester_open_close_us"] = metric{c.ns / 1e3, "us"}
			return openErr
		}
	}
	return fmt.Errorf("slp-to-bonjour has no mDNS send step")
}

// lanesCost times one uncontended admit-and-pickup of the ingest queue.
func lanesCost(out map[string]metric) {
	q := lanes.NewQueue[int](lanes.DefaultPolicy(), nil)
	c := price(200000, func() {
		q.Enqueue(lanes.Control, 1)
		q.TryDequeue()
	})
	out["lanes.enqueue_dequeue_ns"] = metric{c.ns, "ns"}
}

// setupLedger splits setup_s: loading the builtin models, the first
// compile of a case, and deploying it.
func setupLedger(out map[string]metric) error {
	var load, compile, deploy []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		reg, err := starlink.BuiltinRegistry()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := reg.Backend().(*registry.Registry).Compiled("slp-to-upnp"); err != nil {
			return err
		}
		t2 := time.Now()
		b, err := starlink.NewWithRegistry(starlink.Simulated(), reg).DeployBridge(context.Background(), bridgeHost, "slp-to-upnp")
		if err != nil {
			return err
		}
		t3 := time.Now()
		_ = b.Close()
		load = append(load, t1.Sub(t0).Seconds()*1e3)
		compile = append(compile, t2.Sub(t1).Seconds()*1e3)
		deploy = append(deploy, t3.Sub(t2).Seconds()*1e3)
	}
	out["registry.builtin_load_ms"] = metric{summarize(load).med, "ms"}
	out["registry.compiled_first_ms"] = metric{summarize(compile).med, "ms"}
	out["core.deploy_ms"] = metric{summarize(deploy).med, "ms"}
	return nil
}

// simLedger runs simControl with the flight recorder on and off: the
// difference is the recorder's price, and what is left after the
// replayed codec and translation allocations is what the session
// machinery itself costs.
func simLedger(seed int64, codecs cost, out map[string]metric) error {
	run := func(opts ...starlink.Option) (*segment, error) {
		seg, err := runSegment(simControl, seed, time.Second, false, opts...)
		if err != nil {
			return nil, err
		}
		if seg.lost() > 0 {
			return nil, errors.New("simulator control: " + seg.lostProblem())
		}
		return seg, seg.leaks.err()
	}
	on, err := run()
	if err != nil {
		return err
	}
	off, err := run(starlink.WithFlightRecorder(0))
	if err != nil {
		return err
	}
	perInteraction := func(seg *segment) (allocs, bytes float64) {
		n := float64(seg.verified)
		return float64(seg.use.mallocs) / n, float64(seg.use.bytes) / n
	}
	onA, onB := perInteraction(on)
	offA, offB := perInteraction(off)
	out["sim.allocs_per_interaction"] = metric{onA, "count"}
	out["sim.alloc_bytes_per_interaction"] = metric{onB, "B"}
	out["sim.latency_p50_us"] = metric{scaledP50(on), "us"}
	out["trace.recorder_allocs_per_session"] = metric{onA - offA, "count"}
	out["trace.recorder_bytes_per_session"] = metric{onB - offB, "B"}
	out["engine.session_allocs"] = metric{onA - codecs.allocs, "count"}
	out["engine.session_alloc_bytes"] = metric{onB - codecs.bytes, "B"}
	return nil
}

// sortedNames lists a metric map's names.
func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
