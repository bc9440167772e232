// Package dst is the deterministic-simulation-testing rig: declarative
// fault scenarios executed on the simnet virtual clock, checked against
// a catalog of whole-system invariants, swept across seeds, and — on
// failure — captured as a self-contained replayable artifact.
//
// A scenario hosts the full dispatcher (every case loaded in the
// registry) on one simulated bridge host, starts the legacy services
// each case bridges to, and fires staggered waves of protocol-native
// clients while a netapi.FaultPlan injects loss, delay, reordering,
// duplication and partitions at the delivery layer. Because the whole
// run — engine goroutines included — is serialized under the
// simulator's WorkAdd/WorkDone contract, one (scenario, seed) pair always
// produces the same delivery-event trace, byte for byte; that is what
// makes a recorded failure replayable.
package dst

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"starlink/internal/netapi"
)

// Scenario declares one deterministic simulation: which cases get
// client workloads, how many clients, the fault plan, and optional
// mid-run drain / hot-reload actions. The zero value is not runnable;
// use the builtin scenarios or fill Name and Cases.
type Scenario struct {
	// Name identifies the scenario (sweep selection, artifacts).
	Name string
	// Info is a one-line human description.
	Info string
	// Cases lists the cases that receive client workloads. The
	// dispatcher always hosts every case loaded in the registry;
	// multicast entry traffic may legitimately open sessions in cases
	// beyond this list (ambiguous dispatch), which the per-case
	// invariants account for.
	Cases []string
	// Clients is the number of clients started per case.
	Clients int
	// Stagger spaces successive client starts within a case (virtual
	// time). Zero starts them all at once.
	Stagger time.Duration
	// Distinct gives client i of every case a service type of its own
	// (printerNN), served by its own SLP agent and Bonjour responder
	// under a URL that names the type, and arms the reply-isolation
	// invariant: no client may accept a URL naming another's type.
	Distinct bool
	// MaxSessions caps each engine (0 → engine default).
	MaxSessions int
	// HostOnly hosts Cases alone, not every loaded case: ambiguous
	// dispatch would hand an slp-to-upnp lookup to slp-to-bonjour.
	HostOnly bool
	// Faults is the delivery-layer fault plan (nil → fault-free run).
	Faults *netapi.FaultPlan
	// Drain, when positive, begins dispatcher drain at that virtual
	// offset: later session entries are refused with ErrDraining while
	// admitted sessions run to completion.
	Drain time.Duration
	// Reload, when positive, hot-loads the models directory into the
	// registry at that virtual offset and Syncs the dispatcher — the
	// zero-restart provisioning path under faults.
	Reload time.Duration
	// AltClients fires that many raw slp-to-upnp-alt unicast requests
	// (entry port 1427) after the reload, Stagger apart. Requires
	// Reload > 0: the alt case only exists once the models directory
	// has been loaded.
	AltClients int
	// Expect lists result-counter floors checked as the "expectations"
	// invariant.
	Expect []Expectation
}

// Expectation is a floor on one aggregate result counter: the run
// violates the expectations invariant when counter < Min. Counter is
// one of: started, ended, completed, failed, parseerrors, ignored,
// rejected, dropped, drainrejected, stale, dispatched, ambiguous,
// unroutable, shed.
type Expectation struct {
	Counter string
	Min     int
}

// expectCounters names the valid Expectation counters.
var expectCounters = map[string]bool{
	"started": true, "ended": true, "completed": true, "failed": true,
	"parseerrors": true, "ignored": true, "rejected": true, "dropped": true,
	"drainrejected": true, "stale": true, "dispatched": true,
	"ambiguous": true, "unroutable": true, "shed": true,
}

// MaxClients bounds Clients and AltClients. The builtins start at most
// 12 per case; a scenario read back from an artifact must not schedule
// billions.
const MaxClients = 64

// Validate rejects unrunnable scenarios, and any scenario FormatScenario
// would not write back as it is: a negative duration, which it drops,
// and an empty case name. A floor below zero checks nothing.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dst: scenario has no name")
	}
	if len(s.Cases) == 0 && s.AltClients == 0 {
		return fmt.Errorf("dst: scenario %s drives no cases", s.Name)
	}
	if s.Clients < 0 || s.MaxSessions < 0 || s.AltClients < 0 {
		return fmt.Errorf("dst: scenario %s has negative counts", s.Name)
	}
	if s.Clients > MaxClients || s.AltClients > MaxClients {
		return fmt.Errorf("dst: scenario %s starts more than %d clients per case", s.Name, MaxClients)
	}
	if s.Stagger < 0 || s.Drain < 0 || s.Reload < 0 {
		return fmt.Errorf("dst: scenario %s has a negative duration", s.Name)
	}
	for _, c := range s.Cases {
		if c == "" {
			return fmt.Errorf("dst: scenario %s has a case with no name", s.Name)
		}
	}
	if len(s.Cases) > 0 && s.Clients == 0 {
		return fmt.Errorf("dst: scenario %s lists cases but zero clients", s.Name)
	}
	if s.AltClients > 0 && s.Reload <= 0 {
		return fmt.Errorf("dst: scenario %s wants alt clients without a reload", s.Name)
	}
	for _, e := range s.Expect {
		if !expectCounters[e.Counter] {
			return fmt.Errorf("dst: scenario %s expects unknown counter %q", s.Name, e.Counter)
		}
		if e.Min < 0 {
			return fmt.Errorf("dst: scenario %s expects %s at least %d, below zero", s.Name, e.Counter, e.Min)
		}
	}
	return nil
}

// FormatScenario renders a scenario in the line-oriented table form
// ParseScenario reads — the form embedded in failure artifacts, so a
// replay needs no access to the original scenario registry.
func FormatScenario(s *Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", s.Name)
	if s.Info != "" {
		fmt.Fprintf(&b, "info %s\n", s.Info)
	}
	for _, c := range s.Cases {
		fmt.Fprintf(&b, "case %s\n", c)
	}
	if s.Clients > 0 {
		fmt.Fprintf(&b, "clients %d\n", s.Clients)
	}
	if s.Stagger > 0 {
		fmt.Fprintf(&b, "stagger %s\n", s.Stagger)
	}
	if s.Distinct {
		b.WriteString("distinct\n")
	}
	if s.MaxSessions > 0 {
		fmt.Fprintf(&b, "maxsessions %d\n", s.MaxSessions)
	}
	if s.HostOnly {
		b.WriteString("hostonly\n")
	}
	if s.Faults != nil {
		for i := range s.Faults.Rules {
			b.WriteString(netapi.FormatFaultRule(s.Faults.Rules[i]))
			b.WriteByte('\n')
		}
	}
	if s.Drain > 0 {
		fmt.Fprintf(&b, "drain %s\n", s.Drain)
	}
	if s.Reload > 0 {
		fmt.Fprintf(&b, "reload %s\n", s.Reload)
	}
	if s.AltClients > 0 {
		fmt.Fprintf(&b, "altclients %d\n", s.AltClients)
	}
	for _, e := range s.Expect {
		fmt.Fprintf(&b, "expect %s>=%d\n", e.Counter, e.Min)
	}
	return b.String()
}

// ParseScenario reads the table form produced by FormatScenario. Blank
// lines and #-comments are ignored.
func ParseScenario(text string) (*Scenario, error) {
	s := &Scenario{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		var err error
		switch key {
		case "scenario":
			s.Name = rest
		case "info":
			s.Info = rest
		case "case":
			s.Cases = append(s.Cases, rest)
		case "clients":
			s.Clients, err = strconv.Atoi(rest)
		case "stagger":
			s.Stagger, err = time.ParseDuration(rest)
		case "distinct":
			s.Distinct = true
		case "maxsessions":
			s.MaxSessions, err = strconv.Atoi(rest)
		case "hostonly":
			s.HostOnly = true
		case "fault":
			var r netapi.FaultRule
			if r, err = netapi.ParseFaultRule(line); err == nil {
				if s.Faults == nil {
					s.Faults = &netapi.FaultPlan{}
				}
				s.Faults.Rules = append(s.Faults.Rules, r)
			}
		case "drain":
			s.Drain, err = time.ParseDuration(rest)
		case "reload":
			s.Reload, err = time.ParseDuration(rest)
		case "altclients":
			s.AltClients, err = strconv.Atoi(rest)
		case "expect":
			name, min, ok := strings.Cut(rest, ">=")
			if !ok {
				return nil, fmt.Errorf("dst: line %d: expect wants counter>=min, got %q", ln+1, rest)
			}
			e := Expectation{Counter: strings.TrimSpace(name)}
			if e.Min, err = strconv.Atoi(strings.TrimSpace(min)); err == nil {
				s.Expect = append(s.Expect, e)
			}
		default:
			return nil, fmt.Errorf("dst: line %d: unknown scenario key %q", ln+1, key)
		}
		if err != nil {
			return nil, fmt.Errorf("dst: line %d: %s: %v", ln+1, key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// builtinCases is every merged case the builtin registry ships.
var builtinCases = []string{
	"slp-to-upnp", "slp-to-bonjour",
	"upnp-to-slp", "upnp-to-bonjour",
	"bonjour-to-upnp", "bonjour-to-slp",
}

// Builtin returns the shipped scenario catalog, keyed by name. The
// first five (loss, delay, reorder, duplicate, partition), garbage,
// requester-reuse and ssdp-reuse are the CI sweep set; the rest exercise overload,
// drain and hot-reload paths plus seed-pinned regressions. selftest-fail is intentionally
// unsatisfiable — it exists so the artifact/replay pipeline itself is
// covered by an always-failing run.
func Builtin() map[string]*Scenario {
	plan := func(rules ...netapi.FaultRule) *netapi.FaultPlan {
		return &netapi.FaultPlan{Rules: rules}
	}
	m := map[string]*Scenario{}
	add := func(s *Scenario) { m[s.Name] = s }
	// lateReplies makes a reply land while a later session holds the
	// socket its own session was lent.
	lateReplies := plan(
		netapi.FaultRule{Name: "late-dup", Proto: "udp", Duplicate: 0.5, DuplicateDelay: 40 * time.Millisecond},
		netapi.FaultRule{Name: "swap", Proto: "udp", Reorder: 0.3},
	)

	add(&Scenario{
		Name:    "loss",
		Info:    "every case under 25% datagram loss",
		Cases:   builtinCases,
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "lossy", Proto: "udp", Loss: 0.25}),
		Expect: []Expectation{{Counter: "started", Min: 1}},
	})
	add(&Scenario{
		Name:    "delay",
		Info:    "every case under 5ms±4ms added one-way delay",
		Cases:   builtinCases,
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "slow", Proto: "udp",
			Delay: 5 * time.Millisecond, DelayJitter: 4 * time.Millisecond}),
		Expect: []Expectation{{Counter: "completed", Min: 6}},
	})
	add(&Scenario{
		Name:    "reorder",
		Info:    "every case with 35% of datagrams held past later traffic",
		Cases:   builtinCases,
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "swap", Proto: "udp", Reorder: 0.35}),
		Expect: []Expectation{{Counter: "completed", Min: 6}},
	})
	add(&Scenario{
		Name:    "duplicate",
		Info:    "every case with 35% of datagrams delivered twice",
		Cases:   builtinCases,
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "twice", Proto: "udp",
			Duplicate: 0.35, DuplicateDelay: 300 * time.Microsecond}),
		Expect: []Expectation{{Counter: "completed", Min: 6}},
	})
	add(&Scenario{
		Name:    "partition",
		Info:    "bridge cut from the legacy services early, heals mid-run",
		Cases:   builtinCases,
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(
			netapi.FaultRule{Name: "cut-upnp", From: "10.0.0.5", To: "10.0.0.7",
				Start: 0, End: 400 * time.Millisecond, Partition: true},
			netapi.FaultRule{Name: "cut-slp", From: "10.0.0.5", To: "10.0.0.9",
				Start: 0, End: 400 * time.Millisecond, Partition: true},
			netapi.FaultRule{Name: "cut-mdns", From: "10.0.0.5", To: "10.0.0.11",
				Start: 0, End: 400 * time.Millisecond, Partition: true},
		),
		Expect: []Expectation{{Counter: "started", Min: 6}},
	})
	add(&Scenario{
		Name:    "garbage",
		Info:    "every case while datagrams to the bridge arrive corrupted or cut short",
		Cases:   builtinCases,
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "garbage", To: bridgeIP, Proto: "udp", Corrupt: 0.2, Truncate: 0.3}),
		Expect: []Expectation{{Counter: "parseerrors", Min: 1}},
	})
	add(&Scenario{
		Name:    "flood",
		Info:    "entry flood against a small session cap: admission control under overload",
		Cases:   builtinCases,
		Clients: 12, Stagger: 500 * time.Microsecond, MaxSessions: 8,
		Expect: []Expectation{{Counter: "started", Min: 6}},
	})
	add(&Scenario{
		Name:    "drain-loss",
		Info:    "drain begins while lossy traffic is still arriving",
		Cases:   builtinCases,
		Clients: 3, Stagger: 40 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "lossy", Proto: "udp", Loss: 0.2}),
		Drain:  60 * time.Millisecond,
		Expect: []Expectation{{Counter: "started", Min: 1}},
	})
	add(&Scenario{
		Name:    "churn",
		Info:    "loss, late duplicates, reordering and an early drain all at once",
		Cases:   builtinCases,
		Clients: 3, Stagger: 2 * time.Millisecond,
		Faults: plan(
			netapi.FaultRule{Name: "lossy", Proto: "udp", Loss: 0.1},
			netapi.FaultRule{Name: "late-dup", Proto: "udp",
				Duplicate: 0.5, DuplicateDelay: 40 * time.Millisecond},
			netapi.FaultRule{Name: "swap", Proto: "udp", Reorder: 0.3},
		),
		Drain:  6 * time.Millisecond,
		Expect: []Expectation{{Counter: "started", Min: 1}},
	})
	add(&Scenario{
		Name:    "drain-partition",
		Info:    "drain begins while the legacy side is partitioned: stalled sessions must still terminate, and the client that comes late is refused",
		Cases:   builtinCases,
		Clients: 3, Stagger: 12 * time.Millisecond,
		Faults: plan(
			netapi.FaultRule{Name: "cut-upnp", From: "10.0.0.5", To: "10.0.0.7",
				Start: 0, End: 100 * time.Millisecond, Partition: true},
			netapi.FaultRule{Name: "cut-slp", From: "10.0.0.5", To: "10.0.0.9",
				Start: 0, End: 100 * time.Millisecond, Partition: true},
			netapi.FaultRule{Name: "cut-mdns", From: "10.0.0.5", To: "10.0.0.11",
				Start: 0, End: 100 * time.Millisecond, Partition: true},
		),
		Drain:  20 * time.Millisecond,
		Expect: []Expectation{{Counter: "started", Min: 1}, {Counter: "drainrejected", Min: 1}},
	})
	add(&Scenario{
		Name:    "flood-dup",
		Info:    "entry flood over a small session cap with heavy duplication: lease handling on every refusal path",
		Cases:   builtinCases,
		Clients: 12, Stagger: 500 * time.Microsecond, MaxSessions: 8,
		Faults: plan(netapi.FaultRule{Name: "dup-storm", Proto: "udp",
			Duplicate: 0.8, DuplicateDelay: 20 * time.Millisecond}),
		Expect: []Expectation{{Counter: "started", Min: 6}},
	})
	add(&Scenario{
		Name:    "reload-partition",
		Info:    "slp-to-upnp-alt hot-loaded while the bridge is partitioned from the UPnP device",
		Cases:   []string{"slp-to-upnp", "bonjour-to-upnp"},
		Clients: 2, Stagger: 3 * time.Millisecond,
		Faults: plan(netapi.FaultRule{Name: "cut-upnp", From: "10.0.0.5", To: "10.0.0.7",
			Start: 2 * time.Millisecond, End: 300 * time.Millisecond, Partition: true}),
		Reload: 50 * time.Millisecond, AltClients: 2,
		Expect: []Expectation{{Counter: "started", Min: 2}},
	})
	add(&Scenario{
		Name:    "requester-reuse",
		Info:    "lent requester sockets under late duplicates and reordering: every client asks for a type of its own",
		Cases:   []string{"slp-to-bonjour", "bonjour-to-slp"},
		Clients: 12, Stagger: 9 * time.Millisecond,
		Distinct: true,
		Faults:   lateReplies,
		Expect:   []Expectation{{Counter: "completed", Min: 12}, {Counter: "stale", Min: 1}},
	})
	add(&Scenario{
		Name:    "ssdp-reuse",
		Info:    "SSDP sockets lent on the ST replies echo, under late duplicates and reordering: one UPnP device per client's type",
		Cases:   []string{"slp-to-upnp"},
		Clients: 12, Stagger: 9 * time.Millisecond,
		Distinct: true, HostOnly: true,
		Faults: lateReplies,
		Expect: []Expectation{{Counter: "completed", Min: 12}, {Counter: "stale", Min: 1}},
	})
	add(&Scenario{
		Name:    "selftest-fail",
		Info:    "intentionally unsatisfiable: total loss plus a completion floor, to exercise artifacts",
		Cases:   []string{"slp-to-upnp"},
		Clients: 1,
		Faults:  plan(netapi.FaultRule{Name: "void", Proto: "udp", Loss: 1.0}),
		Expect:  []Expectation{{Counter: "completed", Min: 1}},
	})
	return m
}

// Names returns the builtin scenario names, sorted.
func Names() []string {
	m := Builtin()
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SweepSet is the default scenario set for seed sweeps: the five fault
// modes, garbage (hostile bytes at the bridge), and the two scenarios
// that hold lent requester sockets — by epoch and by echoed ST — to
// per-session isolation.
var SweepSet = []string{"loss", "delay", "reorder", "duplicate", "partition", "garbage", "requester-reuse", "ssdp-reuse"}

// Lookup resolves a builtin scenario by name.
func Lookup(name string) (*Scenario, error) {
	if s, ok := Builtin()[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("dst: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
}
