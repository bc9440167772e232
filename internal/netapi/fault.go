package netapi

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// FaultRule describes one fault injected at a runtime's delivery
// layer: which endpoint pairs it applies to, when it is active, and
// what it does to matching traffic. Rules are pure data — the runtime
// hosting the plan (see FaultInjector) interprets them, drawing every
// probabilistic decision from its own seeded fault RNG so that a given
// seed plus a given plan yields a single execution.
//
// Endpoint patterns are "ip", "ip:port", "*" (any), or a host prefix
// such as "10.0.1.*"; an empty pattern matches anything. A datagram
// matches a rule when the sender socket matches From AND the receiving
// socket matches To — rules are directional, so a partition of A→B
// says nothing about B→A.
//
// Start and End bound the rule's active window as offsets from the
// instant the plan was installed; End zero means the rule never heals.
// All matching rules apply, in plan order: losses compound, delays add.
type FaultRule struct {
	// Name labels the rule in plans and artifacts; it has no semantic
	// effect.
	Name string
	// From and To are endpoint patterns (see above).
	From, To string
	// Proto restricts the rule to "udp" or "stream"; empty means both.
	Proto string
	// Start and End delimit the active window relative to plan install.
	// End zero leaves the rule active forever (a partition that never
	// heals).
	Start, End time.Duration
	// Loss is the probability (0..1) a matching datagram is dropped.
	// Streams are never lossy (TCP semantics) — Loss is ignored for
	// stream chunks.
	Loss float64
	// Delay and DelayJitter add a fixed plus uniformly-jittered extra
	// one-way delay to matching deliveries (datagrams and stream
	// chunks).
	Delay, DelayJitter time.Duration
	// Duplicate is the probability (0..1) a matching datagram is
	// delivered twice; the copy arrives DuplicateDelay after the
	// original's schedule. Ignored for streams.
	Duplicate      float64
	DuplicateDelay time.Duration
	// Reorder is the probability (0..1) a matching datagram is held an
	// extra ReorderDelay, letting later traffic overtake it. Ignored
	// for streams (TCP delivers in order).
	Reorder      float64
	ReorderDelay time.Duration
	// Corrupt is the probability (0..1) a matching datagram arrives with
	// one byte flipped at a random offset, and Truncate the probability
	// it arrives cut short at a random length. Both damage only the copy
	// delivered. Ignored for streams.
	Corrupt, Truncate float64
	// Partition drops every matching datagram and stalls matching
	// stream traffic until the rule's End (chunks in flight deliver at
	// heal time; a partition with no End kills stream traffic too).
	Partition bool
}

// ActiveAt reports whether the rule's window covers elapsed time since
// plan install.
func (r *FaultRule) ActiveAt(elapsed time.Duration) bool {
	return elapsed >= r.Start && (r.End == 0 || elapsed < r.End)
}

// Matches reports whether the rule applies to a proto ("udp" or
// "stream") delivery from→to at elapsed since plan install.
func (r *FaultRule) Matches(proto string, from, to Addr, elapsed time.Duration) bool {
	if r.Proto != "" && r.Proto != proto {
		return false
	}
	if !r.ActiveAt(elapsed) {
		return false
	}
	return matchEndpoint(r.From, from) && matchEndpoint(r.To, to)
}

// matchEndpoint matches an endpoint pattern against an address.
func matchEndpoint(pat string, a Addr) bool {
	if pat == "" || pat == "*" {
		return true
	}
	host := pat
	if i := strings.LastIndexByte(pat, ':'); i >= 0 {
		host = pat[:i]
		port, err := strconv.Atoi(pat[i+1:])
		if err != nil || port != a.Port {
			return false
		}
	}
	if host == "*" {
		return true
	}
	if strings.HasSuffix(host, ".*") {
		return strings.HasPrefix(a.IP, host[:len(host)-1])
	}
	return host == a.IP
}

// FaultPlan is an ordered set of fault rules to install into a runtime
// that supports fault injection. The zero value (or a nil plan)
// injects nothing.
type FaultPlan struct {
	Rules []FaultRule
}

// Empty reports whether the plan injects nothing.
func (p *FaultPlan) Empty() bool { return p == nil || len(p.Rules) == 0 }

// FaultInjector is implemented by runtimes whose delivery layer can
// host a fault plan (the simulator). Installing a plan resets the
// plan's epoch to the runtime's current instant; installing nil
// removes all faults.
type FaultInjector interface {
	InstallFaults(plan *FaultPlan)
}

// ---------------------------------------------------------------------
// Table format
//
// One rule per line, whitespace-separated key=value fields after the
// "fault" keyword; boolean partition is a bare token. This is the form
// embedded in DST scenarios and failure artifacts:
//
//	fault name=cut from=10.0.0.1 to=10.0.0.9:427 proto=udp start=0s end=2s partition
//	fault from=* to=10.0.0.5 loss=0.3 delay=1ms jitter=500us dup=0.2 dupdelay=1ms reorder=0.1 reorderdelay=2ms
//	fault to=10.0.0.5 proto=udp corrupt=0.2 truncate=0.1
// ---------------------------------------------------------------------

// FormatFaultRule renders a rule in the table form; ParseFaultRule
// round-trips it.
func FormatFaultRule(r FaultRule) string {
	var b strings.Builder
	b.WriteString("fault")
	add := func(k, v string) { b.WriteByte(' '); b.WriteString(k); b.WriteByte('='); b.WriteString(v) }
	if r.Name != "" {
		add("name", r.Name)
	}
	if r.From != "" {
		add("from", r.From)
	}
	if r.To != "" {
		add("to", r.To)
	}
	if r.Proto != "" {
		add("proto", r.Proto)
	}
	if r.Start != 0 {
		add("start", r.Start.String())
	}
	if r.End != 0 {
		add("end", r.End.String())
	}
	if r.Loss != 0 {
		add("loss", strconv.FormatFloat(r.Loss, 'g', -1, 64))
	}
	if r.Delay != 0 {
		add("delay", r.Delay.String())
	}
	if r.DelayJitter != 0 {
		add("jitter", r.DelayJitter.String())
	}
	if r.Duplicate != 0 {
		add("dup", strconv.FormatFloat(r.Duplicate, 'g', -1, 64))
	}
	if r.DuplicateDelay != 0 {
		add("dupdelay", r.DuplicateDelay.String())
	}
	if r.Reorder != 0 {
		add("reorder", strconv.FormatFloat(r.Reorder, 'g', -1, 64))
	}
	if r.ReorderDelay != 0 {
		add("reorderdelay", r.ReorderDelay.String())
	}
	if r.Corrupt != 0 {
		add("corrupt", strconv.FormatFloat(r.Corrupt, 'g', -1, 64))
	}
	if r.Truncate != 0 {
		add("truncate", strconv.FormatFloat(r.Truncate, 'g', -1, 64))
	}
	if r.Partition {
		b.WriteString(" partition")
	}
	return b.String()
}

// ParseFaultRule parses one table-form rule line. It refuses a line
// that cannot mean anything: a probability outside [0,1] (NaN
// included), a negative duration, or an end not after the start.
func ParseFaultRule(line string) (FaultRule, error) {
	var r FaultRule
	fields := strings.Fields(line)
	if len(fields) == 0 || fields[0] != "fault" {
		return r, fmt.Errorf("netapi: fault rule must start with \"fault\": %q", line)
	}
	for _, f := range fields[1:] {
		if f == "partition" {
			r.Partition = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("netapi: fault rule field %q is not key=value", f)
		}
		var err error
		switch k {
		case "name":
			r.Name = v
		case "from":
			r.From = v
		case "to":
			r.To = v
		case "proto":
			if v != "udp" && v != "stream" {
				return r, fmt.Errorf("netapi: fault rule proto %q (want udp or stream)", v)
			}
			r.Proto = v
		case "start":
			r.Start, err = parseDuration(v)
		case "end":
			r.End, err = parseDuration(v)
		case "loss":
			r.Loss, err = parseProb(v)
		case "delay":
			r.Delay, err = parseDuration(v)
		case "jitter":
			r.DelayJitter, err = parseDuration(v)
		case "dup":
			r.Duplicate, err = parseProb(v)
		case "dupdelay":
			r.DuplicateDelay, err = parseDuration(v)
		case "reorder":
			r.Reorder, err = parseProb(v)
		case "reorderdelay":
			r.ReorderDelay, err = parseDuration(v)
		case "corrupt":
			r.Corrupt, err = parseProb(v)
		case "truncate":
			r.Truncate, err = parseProb(v)
		default:
			return r, fmt.Errorf("netapi: unknown fault rule field %q", k)
		}
		if err != nil {
			return r, fmt.Errorf("netapi: fault rule field %s=%s: %w", k, v, err)
		}
	}
	if r.End != 0 && r.End <= r.Start {
		return r, fmt.Errorf("netapi: fault rule field end=%s is not after start=%s: the rule is never active", r.End, r.Start)
	}
	return r, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %g outside [0,1]", p)
	}
	return p, nil
}

func parseDuration(v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %s", d)
	}
	return d, err
}

// FormatFaultPlan renders a plan one rule per line.
func FormatFaultPlan(p *FaultPlan) string {
	if p.Empty() {
		return ""
	}
	lines := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		lines[i] = FormatFaultRule(r)
	}
	return strings.Join(lines, "\n") + "\n"
}

// ParseFaultPlan parses the multi-line table form: one rule per line,
// blank lines and #-comments ignored. An empty input yields an empty
// plan.
func ParseFaultPlan(text string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := ParseFaultRule(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		p.Rules = append(p.Rules, r)
	}
	return p, nil
}
