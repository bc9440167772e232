package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// The traced run's spans. They are recorded from the benchmark's own
// files — the client, and the tap around the legacy services' nodes —
// kept in memory, and written out when the run ends. Spans inside the
// bridge are a later issue.
//
//	interaction            client send -> verified reply (id = seq:XID)
//	  leg.request          client send -> the service's handler is entered
//	  leg.peer             the service's handler -> its answer is sent (one per visit)
//	  leg.mid              the service's answer -> its next handler entry (the bridge between two requests of one program)
//	  leg.reply            the service's last answer -> the client's handler
//	  parse|frame|apply|compose.<msg>   one timed call of the offline replay, same interaction

// traceDir is where span files go, relative to the checkout root the
// benchmark is run from.
const traceDir = "benchmarks/out"

// maxSpanInteractions bounds the span file; the leg metrics use every
// interaction.
const maxSpanInteractions = 500

type segmentTrace struct {
	interactions []interaction
	events       []tapEvent
}

type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the first interaction began
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"` // duration not covered by child spans
	Replay bool   `json:"replay,omitempty"`
}

// legs splits one interaction at the service's tap events.
type legs struct {
	request, peer, mid, reply time.Duration
	visits                    [][2]time.Time // handler entry, answer sent
}

// splitLegs assigns tap events to interactions by time containment. An
// interaction that overlaps another (open loop) or saw no complete
// service visit is skipped: its events cannot be told apart.
func splitLegs(t *segmentTrace) (map[int]legs, int) {
	its := append([]interaction(nil), t.interactions...)
	sort.Slice(its, func(i, j int) bool { return its[i].start.Before(its[j].start) })
	evs := append([]tapEvent(nil), t.events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].at.Before(evs[j].at) })
	out := map[int]legs{}
	skipped := 0
	var lastEnd time.Time
	for i, it := range its {
		overlaps := it.start.Before(lastEnd) || (i+1 < len(its) && its[i+1].start.Before(it.end))
		if it.end.After(lastEnd) {
			lastEnd = it.end
		}
		lo := sort.Search(len(evs), func(k int) bool { return !evs[k].at.Before(it.start) })
		hi := sort.Search(len(evs), func(k int) bool { return evs[k].at.After(it.end) })
		var l legs
		var entered time.Time
		for _, ev := range evs[lo:hi] {
			switch {
			case !ev.send && entered.IsZero():
				entered = ev.at
			case ev.send && !entered.IsZero():
				l.visits = append(l.visits, [2]time.Time{entered, ev.at})
				l.peer += ev.at.Sub(entered)
				entered = time.Time{}
			}
		}
		if overlaps || len(l.visits) == 0 {
			skipped++
			continue
		}
		l.request = l.visits[0][0].Sub(it.start)
		l.reply = it.end.Sub(l.visits[len(l.visits)-1][1])
		l.mid = it.end.Sub(it.start) - l.request - l.peer - l.reply
		out[it.seq] = l
	}
	return out, skipped
}

// legLedger reports the median of each leg.
func legLedger(ls map[int]legs, out map[string]metric) {
	p50 := func(leg func(legs) time.Duration) metric {
		d := make([]int64, 0, len(ls))
		for _, l := range ls {
			d = append(d, int64(leg(l)))
		}
		slices.Sort(d)
		return metric{us(quantileNS(d, 0.5)), "us"}
	}
	out["leg.request_p50_us"] = p50(func(l legs) time.Duration { return l.request })
	out["leg.peer_p50_us"] = p50(func(l legs) time.Duration { return l.peer })
	out["leg.mid_p50_us"] = p50(func(l legs) time.Duration { return l.mid })
	out["leg.reply_p50_us"] = p50(func(l legs) time.Duration { return l.reply })
	out["leg.samples"] = metric{float64(len(ls)), "count"}
}

// replayCaseOf names the program whose codec calls are replayed under an
// interaction; the reverse cases have no replay rows.
func replayCaseOf(w *workload, k opKind) string {
	switch {
	case k == opSLPAlt:
		return "slp-to-upnp"
	case k != opSLP:
		return ""
	case w.hosts("-to-bonjour"):
		return "slp-to-bonjour"
	default:
		return "slp-to-upnp"
	}
}

// buildSpans renders the first interactions as spans, with one timed
// replay call per codec step parented to each.
func buildSpans(w *workload, t *segmentTrace, ls map[int]legs, corpus replayCorpus) ([]span, error) {
	if len(t.interactions) == 0 {
		return nil, nil
	}
	epoch := t.interactions[0].start
	for _, it := range t.interactions {
		if it.start.Before(epoch) {
			epoch = it.start
		}
	}
	rel := func(at time.Time) int64 { return int64(at.Sub(epoch)) }
	var spans []span
	leaf := func(name, parent string, n int, from, to time.Time) {
		spans = append(spans, span{Name: name, ID: fmt.Sprintf("%s/%s.%d", parent, name, n), Parent: parent,
			Start: rel(from), End: rel(to), SelfNS: int64(to.Sub(from))})
	}
	rendered := 0
	for _, it := range t.interactions {
		l, ok := ls[it.seq]
		if !ok {
			continue
		}
		if rendered++; rendered > maxSpanInteractions {
			break
		}
		id := fmt.Sprintf("%d:%d", it.seq, it.id)
		// The legs tile the interaction, so its self time stays 0.
		spans = append(spans, span{Name: "interaction", ID: id, Start: rel(it.start), End: rel(it.end)})
		leaf("leg.request", id, 0, it.start, l.visits[0][0])
		for n, v := range l.visits {
			leaf("leg.peer", id, n, v[0], v[1])
			if n+1 < len(l.visits) {
				leaf("leg.mid", id, n, v[1], l.visits[n+1][0])
			}
		}
		leaf("leg.reply", id, 0, l.visits[len(l.visits)-1][1], it.end)
		if name := replayCaseOf(w, it.kind); name != "" {
			rc := corpus[name]
			n := 0
			err := replay(rc.compiled, rc.wires, func(s replayStep) {
				from := time.Now()
				s.call()
				to := time.Now()
				spans = append(spans, span{Name: s.layer + "." + s.msg, ID: fmt.Sprintf("%s/replay.%d", id, n), Parent: id,
					Start: rel(from), End: rel(to), SelfNS: int64(to.Sub(from)), Replay: true})
				n++
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return spans, nil
}

// traceFile is the span file's layout.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Note     string            `json:"note"`
	Counts   map[string]int    `json:"counts"`
	Metrics  map[string]metric `json:"per_layer"`
	Spans    []span            `json:"spans"`
}

func writeTrace(tf traceFile) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, "trace-"+tf.Workload+".json")
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
