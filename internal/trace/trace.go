// Package trace implements the per-session flight recorder: a
// fixed-size ring of pipeline stage events (stage id, offset from the
// session's arrival epoch, byte count, outcome) recorded at each stage
// boundary of the bridge pipeline — classify, recv, parse, automaton
// transition, translate, compose, egress send — and at the arrival of
// each reply a session awaited (peer).
//
// The recorder is built for the engine's hot path. Recording is
// wait-free and allocation-free (held at zero by
// TestRecordAllocs): a slot is claimed with one atomic add and
// written as two atomic words, so late writers — an ingest worker
// racing a session that already failed — never corrupt a dump and
// never need a lock. A nil *Recorder is the disabled recorder: every
// method is a nil-check away from free, which is how a deployment with
// WithFlightRecorder(0) pays ~one branch per stage.
//
// Events are dumped into SessionStats on session failure and are
// serializable to a compact one-line text form (FormatEvents /
// ParseEvents) — the seed of a replayable session artifact.
package trace

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies a pipeline stage boundary, in pipeline order.
type Stage uint8

const (
	// StageClassify is the dispatcher's payload classification (the
	// candidate parsers' Classify).
	StageClassify Stage = iota
	// StageRecv covers a payload's wait between arrival at the
	// listener callback and pickup by the parsing worker or session.
	StageRecv
	// StageParse is the MDL-driven parse of an inbound payload.
	StageParse
	// StageTransition is one automaton δ-step (state transition and
	// field relocation).
	StageTransition
	// StageTranslate is the translation logic mapping field content
	// into an outbound message.
	StageTranslate
	// StageCompose is the MDL-driven composition of the outbound wire
	// form.
	StageCompose
	// StageSend is the egress transmission of a composed payload.
	StageSend
	// StagePeer covers a message a receive step takes, from the end of
	// the session's last send to the message's arrival: the peer's
	// service time and the network in between.
	StagePeer

	// NumStages counts the pipeline stages.
	NumStages = int(iota)
)

var stageNames = [NumStages]string{
	"classify", "recv", "parse", "transition", "translate", "compose", "send", "peer",
}

// String names the stage as used in traces and metric labels.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Outcome is how a stage concluded.
type Outcome uint8

const (
	// OutcomeOK is a stage that completed normally.
	OutcomeOK Outcome = iota
	// OutcomeErr is a stage that failed (its error ends the session or
	// is counted as a parse error).
	OutcomeErr
	// OutcomeDrop is a payload discarded at this stage (e.g. a
	// mid-session payload the automaton was not waiting for).
	OutcomeDrop
)

var outcomeNames = [3]string{"ok", "err", "drop"}

// String names the outcome as used in traces.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Event is one recorded stage boundary. At is the offset from the
// session's epoch (the arrival of its initiating payload), so a trace
// reads as a monotone timeline.
type Event struct {
	Stage   Stage
	Outcome Outcome
	At      time.Duration
	Bytes   int
}

// metaBytesMax bounds the byte count packed into an event slot.
const metaBytesMax = uint64(1)<<48 - 1

// slot is one ring entry, stored as two independently atomic words so
// concurrent recording and dumping never tear a single word. A dump
// racing a wrap-around overwrite can pair one slot's old offset with
// its new metadata — visible only in live dumps of still-active
// sessions, never in a failure dump, where the session goroutine has
// stopped recording.
type slot struct {
	at   atomic.Int64
	meta atomic.Uint64 // stage<<56 | outcome<<48 | bytes
}

// base anchors every epoch: kept as an offset from it, an epoch is one
// atomic word and Reset as wait-free as recording.
var base = time.Now()

// Recorder is a fixed-size session flight recorder. Methods are safe
// for concurrent use and safe on a nil receiver (the disabled form).
type Recorder struct {
	epoch atomic.Int64 // offset from base
	mask  uint64
	next  atomic.Uint64
	slots []slot
}

// New creates a recorder of at least size events (rounded up to a
// power of two, clamped to [4, 4096]) with the given epoch. size ≤ 0
// returns nil — the disabled recorder.
func New(size int, epoch time.Time) *Recorder {
	if size <= 0 {
		return nil
	}
	n := 4
	for n < size && n < 4096 {
		n <<= 1
	}
	r := &Recorder{mask: uint64(n - 1), slots: make([]slot, n)}
	r.epoch.Store(int64(epoch.Sub(base)))
	return r
}

// Reset empties the ring and restarts it at epoch, for its owner's next
// session; a writer racing it lands in one life or the other, untorn.
func (r *Recorder) Reset(epoch time.Time) {
	if r == nil {
		return
	}
	r.epoch.Store(int64(epoch.Sub(base)))
	r.next.Store(0)
}

// Epoch returns the recorder's time origin.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return base.Add(time.Duration(r.epoch.Load()))
}

// Cap returns the ring capacity in events (0 when disabled).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns the number of events ever recorded (≥ the ring size
// once the ring has wrapped).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Record notes a stage boundary at the current time.
func (r *Recorder) Record(st Stage, out Outcome, bytes int) {
	if r == nil {
		return
	}
	r.put(st, out, int64(time.Since(base))-r.epoch.Load(), bytes)
}

// RecordAt notes a stage boundary at an explicit completion time (used
// when the caller already read the clock for a histogram sample).
func (r *Recorder) RecordAt(st Stage, out Outcome, at time.Time, bytes int) {
	if r == nil {
		return
	}
	r.put(st, out, int64(at.Sub(base))-r.epoch.Load(), bytes)
}

func (r *Recorder) put(st Stage, out Outcome, at int64, bytes int) {
	i := (r.next.Add(1) - 1) & r.mask
	b := uint64(bytes)
	if bytes < 0 {
		b = 0
	} else if b > metaBytesMax {
		b = metaBytesMax
	}
	sl := &r.slots[i]
	sl.meta.Store(uint64(st)<<56 | uint64(out)<<48 | b)
	sl.at.Store(at)
}

// Events returns the ring's contents oldest-first: every event when
// fewer than the capacity have been recorded, otherwise the most
// recent Cap() of them.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	size := uint64(len(r.slots))
	count, start := n, uint64(0)
	if n > size {
		count, start = size, n&r.mask
	}
	out := make([]Event, 0, count)
	for k := uint64(0); k < count; k++ {
		sl := &r.slots[(start+k)&r.mask]
		at := sl.at.Load()
		meta := sl.meta.Load()
		out = append(out, Event{
			Stage:   Stage(meta >> 56),
			Outcome: Outcome(meta >> 48 & 0xff),
			At:      time.Duration(at),
			Bytes:   int(meta & metaBytesMax),
		})
	}
	return out
}

// FormatEvents renders events in the compact one-line text form, one
// "stage@offsetns+bytes=outcome" token per event, ';'-separated:
//
//	recv@10250+96=ok;parse@31875+96=ok;send@2104708+118=err
//
// The form round-trips exactly through ParseEvents.
func FormatEvents(evs []Event) string {
	return string(AppendEvents(make([]byte, 0, 32*len(evs)), evs))
}

// AppendEvents appends the compact text form of evs to dst.
func AppendEvents(dst []byte, evs []Event) []byte {
	for i, ev := range evs {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = append(dst, ev.Stage.String()...)
		dst = append(dst, '@')
		dst = strconv.AppendInt(dst, int64(ev.At), 10)
		dst = append(dst, '+')
		dst = strconv.AppendInt(dst, int64(ev.Bytes), 10)
		dst = append(dst, '=')
		dst = append(dst, ev.Outcome.String()...)
	}
	return dst
}

// ParseEvents parses the compact text form produced by FormatEvents.
// An empty string parses to no events.
func ParseEvents(s string) ([]Event, error) {
	if s == "" {
		return nil, nil
	}
	toks := strings.Split(s, ";")
	out := make([]Event, 0, len(toks))
	for _, tok := range toks {
		ev, err := parseEvent(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseEvent(tok string) (Event, error) {
	at := strings.IndexByte(tok, '@')
	plus := strings.IndexByte(tok, '+')
	eq := strings.LastIndexByte(tok, '=')
	if at < 0 || plus < at || eq < plus {
		return Event{}, fmt.Errorf("trace: malformed event %q (want stage@ns+bytes=outcome)", tok)
	}
	var ev Event
	ok := false
	for i, name := range stageNames {
		if name == tok[:at] {
			ev.Stage, ok = Stage(i), true
			break
		}
	}
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown stage %q in event %q", tok[:at], tok)
	}
	ns, err := strconv.ParseInt(tok[at+1:plus], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("trace: bad offset in event %q: %v", tok, err)
	}
	ev.At = time.Duration(ns)
	bytes, err := strconv.Atoi(tok[plus+1 : eq])
	if err != nil || bytes < 0 {
		return Event{}, fmt.Errorf("trace: bad byte count in event %q", tok)
	}
	ev.Bytes = bytes
	ok = false
	for i, name := range outcomeNames {
		if name == tok[eq+1:] {
			ev.Outcome, ok = Outcome(i), true
			break
		}
	}
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown outcome %q in event %q", tok[eq+1:], tok)
	}
	return ev, nil
}
