package dst

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"starlink/internal/trace"
)

// artifactHeader is the first line of every failure artifact; the
// version bumps if the format ever changes incompatibly.
const artifactHeader = "starlink-dst-artifact v1"

// Artifact is a parsed failure artifact: everything needed to replay
// the run (scenario table + seed) and to verify the replay reproduced
// it (trace hash, trace lines, violations). The counter and
// failed-session sections are human diagnostics and are carried
// verbatim, not parsed.
type Artifact struct {
	Scenario       *Scenario
	Seed           int64
	TraceHash      uint64
	VirtualElapsed time.Duration
	Violations     []string
	TraceLines     []string
}

// ArtifactName is the conventional file name for one failed run.
func ArtifactName(sc *Scenario, seed int64) string {
	return fmt.Sprintf("dst-%s-seed%d.txt", sc.Name, seed)
}

// FormatArtifact renders a failed run as a self-contained text
// artifact: identity, the full scenario table (so replay needs no
// scenario registry), the violated invariants, the final accounting
// surfaces, per-session flight-recorder dumps for failed sessions, and
// the complete delivery-event trace.
func FormatArtifact(r *Result) string {
	var b strings.Builder
	b.WriteString(artifactHeader + "\n")
	fmt.Fprintf(&b, "seed %d\n", r.Seed)
	fmt.Fprintf(&b, "trace-hash %016x\n", r.TraceHash)
	fmt.Fprintf(&b, "virtual-elapsed %s\n", r.VirtualElapsed)

	b.WriteString("\n[scenario]\n")
	b.WriteString(FormatScenario(r.Scenario))

	b.WriteString("\n[violations]\n")
	for _, v := range r.Violations {
		b.WriteString(v.String() + "\n")
	}

	b.WriteString("\n[counters]\n")
	for _, c := range slices.Sorted(maps.Keys(r.Cases)) {
		st := r.Cases[c]
		fmt.Fprintf(&b, "case %s started=%d ended=%d completed=%d failed=%d parseerrors=%d ignored=%d rejected=%d dropped=%d drainrejected=%d stale=%d live=%d\n",
			c, r.Started[c], r.Ended[c], st.Completed, st.Failed, st.ParseErrors,
			st.Ignored, st.Rejected, st.Dropped, st.DrainRejected, st.Stale, st.Live)
	}
	fmt.Fprintf(&b, "dispatch dispatched=%d ambiguous=%d unroutable=%d parseerrors=%d\n",
		r.Dispatch.Dispatched, r.Dispatch.Ambiguous, r.Dispatch.Unroutable, r.Dispatch.ParseErrors)
	for _, c := range slices.Sorted(maps.Keys(r.Cases)) {
		p := r.Cases[c]
		fmt.Fprintf(&b, "probe %s live=%d sem=%d lanedepth=%d\n", c, p.Live, p.SemInUse, p.LaneDepth)
	}
	for _, c := range slices.Sorted(maps.Keys(r.Clients)) {
		t := r.Clients[c]
		fmt.Fprintf(&b, "clients %s done=%d hits=%d\n", c, t.Done, t.Hits)
	}
	fmt.Fprintf(&b, "lease-delta %d\n", r.LeaseDelta)
	fmt.Fprintf(&b, "message-delta %d\n", r.MessageDelta)

	if len(r.FailedSessions) > 0 {
		b.WriteString("\n[failed-sessions]\n")
		for _, f := range r.FailedSessions {
			fmt.Fprintf(&b, "session case=%s origin=%s err=%q\n", f.Case, f.Origin, f.Err)
			if len(f.Trace) > 0 {
				fmt.Fprintf(&b, "  flight %s\n", trace.FormatEvents(f.Trace))
			}
		}
	}

	b.WriteString("\n[trace]\n")
	for _, line := range r.TraceLines {
		b.WriteString(line + "\n")
	}
	return b.String()
}

// ParseArtifact reads an artifact back. Unknown sections are skipped,
// so diagnostics can grow without breaking old readers.
func ParseArtifact(text string) (*Artifact, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != artifactHeader {
		return nil, fmt.Errorf("dst: not a DST artifact (want %q first line)", artifactHeader)
	}
	a := &Artifact{}
	section := ""
	var scenarioLines []string
	for _, line := range lines[1:] {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "[") && strings.HasSuffix(trimmed, "]") {
			section = strings.Trim(trimmed, "[]")
			continue
		}
		switch section {
		case "":
			if trimmed == "" {
				continue
			}
			key, rest, _ := strings.Cut(trimmed, " ")
			var err error
			switch key {
			case "seed":
				a.Seed, err = strconv.ParseInt(rest, 10, 64)
			case "trace-hash":
				a.TraceHash, err = strconv.ParseUint(rest, 16, 64)
			case "virtual-elapsed":
				a.VirtualElapsed, err = time.ParseDuration(rest)
			default:
				return nil, fmt.Errorf("dst: unknown artifact header key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("dst: artifact header %s: %v", key, err)
			}
		case "scenario":
			scenarioLines = append(scenarioLines, line)
		case "violations":
			if trimmed != "" {
				a.Violations = append(a.Violations, trimmed)
			}
		case "trace":
			if trimmed != "" {
				a.TraceLines = append(a.TraceLines, line)
			}
		}
	}
	sc, err := ParseScenario(strings.Join(scenarioLines, "\n"))
	if err != nil {
		return nil, fmt.Errorf("dst: artifact scenario: %w", err)
	}
	a.Scenario = sc
	return a, nil
}
