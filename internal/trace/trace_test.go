package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageAndOutcomeNames(t *testing.T) {
	want := []string{"classify", "recv", "parse", "transition", "translate", "compose", "send", "peer"}
	if NumStages != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, name := range want {
		if got := Stage(i).String(); got != name {
			t.Errorf("Stage(%d) = %q, want %q", i, got, name)
		}
	}
	if got := Stage(200).String(); got != "unknown" {
		t.Errorf("out-of-range stage = %q", got)
	}
	for i, name := range []string{"ok", "err", "drop"} {
		if got := Outcome(i).String(); got != name {
			t.Errorf("Outcome(%d) = %q, want %q", i, got, name)
		}
	}
}

func TestRecorderBasic(t *testing.T) {
	epoch := time.Now()
	r := New(8, epoch)
	if r.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8", r.Cap())
	}
	if !r.Epoch().Equal(epoch) {
		t.Fatalf("Epoch = %v, want %v", r.Epoch(), epoch)
	}
	r.RecordAt(StageRecv, OutcomeOK, epoch.Add(10*time.Microsecond), 96)
	r.RecordAt(StageParse, OutcomeOK, epoch.Add(35*time.Microsecond), 96)
	r.RecordAt(StageSend, OutcomeErr, epoch.Add(2*time.Millisecond), 118)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events = %d, want 3", len(evs))
	}
	wantEvs := []Event{
		{StageRecv, OutcomeOK, 10 * time.Microsecond, 96},
		{StageParse, OutcomeOK, 35 * time.Microsecond, 96},
		{StageSend, OutcomeErr, 2 * time.Millisecond, 118},
	}
	for i, want := range wantEvs {
		if evs[i] != want {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want)
		}
	}
	if r.Total() != 3 {
		t.Fatalf("Total = %d, want 3", r.Total())
	}
}

func TestRecorderWrap(t *testing.T) {
	r := New(4, time.Now())
	for i := 0; i < 10; i++ {
		r.RecordAt(StageParse, OutcomeOK, r.Epoch().Add(time.Duration(i)*time.Millisecond), i)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("wrapped Events = %d, want 4", len(evs))
	}
	// Oldest-first: events 6, 7, 8, 9.
	for i, ev := range evs {
		if ev.Bytes != 6+i {
			t.Errorf("event %d Bytes = %d, want %d (oldest-first)", i, ev.Bytes, 6+i)
		}
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
}

func TestRecorderSizing(t *testing.T) {
	if r := New(0, time.Now()); r != nil {
		t.Fatal("New(0) should disable (nil)")
	}
	if r := New(-3, time.Now()); r != nil {
		t.Fatal("New(-3) should disable (nil)")
	}
	for size, want := range map[int]int{1: 4, 4: 4, 5: 8, 64: 64, 100: 128, 1 << 20: 4096} {
		if got := New(size, time.Now()).Cap(); got != want {
			t.Errorf("New(%d).Cap() = %d, want %d", size, got, want)
		}
	}
}

func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Record(StageSend, OutcomeOK, 10) // must not panic
	r.RecordAt(StageSend, OutcomeOK, time.Now(), 10)
	if r.Events() != nil || r.Total() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder must be an empty no-op")
	}
	if !r.Epoch().IsZero() {
		t.Fatal("nil Epoch should be zero")
	}
}

func TestRecordClampsBytes(t *testing.T) {
	r := New(4, time.Now())
	r.Record(StageSend, OutcomeOK, -17)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Bytes != 0 {
		t.Fatalf("negative bytes should clamp to 0, got %+v", evs)
	}
}

func TestConcurrentRecordAndDump(t *testing.T) {
	r := New(64, time.Now())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Record(StageRecv, OutcomeOK, i)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, ev := range r.Events() {
				if int(ev.Stage) >= NumStages {
					t.Errorf("torn event stage %d", ev.Stage)
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if r.Total() != 20000 {
		t.Fatalf("Total = %d, want 20000", r.Total())
	}
	if got := len(r.Events()); got != 64 {
		t.Fatalf("Events = %d, want full ring of 64", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	evs := []Event{
		{StageClassify, OutcomeOK, 1200, 0},
		{StageRecv, OutcomeOK, 10250, 96},
		{StageParse, OutcomeErr, 31875, 96},
		{StageTransition, OutcomeOK, 40000, 0},
		{StageTranslate, OutcomeOK, 55000, 0},
		{StageCompose, OutcomeOK, 61000, 118},
		{StageSend, OutcomeDrop, 2104708, 118},
	}
	text := FormatEvents(evs)
	if strings.ContainsAny(text, " \n") {
		t.Fatalf("compact form contains whitespace: %q", text)
	}
	back, err := ParseEvents(text)
	if err != nil {
		t.Fatalf("ParseEvents(%q): %v", text, err)
	}
	if len(back) != len(evs) {
		t.Fatalf("round trip length %d, want %d", len(back), len(evs))
	}
	for i := range evs {
		if back[i] != evs[i] {
			t.Errorf("event %d: %+v != %+v", i, back[i], evs[i])
		}
	}
	if got := FormatEvents(nil); got != "" {
		t.Errorf("FormatEvents(nil) = %q, want empty", got)
	}
	if evs, err := ParseEvents(""); err != nil || len(evs) != 0 {
		t.Errorf("ParseEvents(\"\") = %v, %v", evs, err)
	}
}

func TestParseEventsRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"recv", "recv@", "recv@12", "recv@12+3", "recv@12+3=",
		"warp@12+3=ok", "recv@x+3=ok", "recv@12+x=ok", "recv@12+3=maybe",
		"recv@12+-3=ok", ";",
	} {
		if _, err := ParseEvents(bad); err == nil {
			t.Errorf("ParseEvents(%q) succeeded, want error", bad)
		}
	}
}

// TestRecordAllocs holds Record and RecordAt, which every traced
// session stage calls, at zero allocations.
func TestRecordAllocs(t *testing.T) {
	r := New(64, time.Now())
	at := time.Now()
	if n := testing.AllocsPerRun(1000, func() { r.Record(StageSend, OutcomeOK, 118) }); n != 0 {
		t.Fatalf("Record allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.RecordAt(StageParse, OutcomeOK, at, 96) }); n != 0 {
		t.Fatalf("RecordAt allocates %v per op, want 0", n)
	}
	var nilR *Recorder
	if n := testing.AllocsPerRun(1000, func() { nilR.Record(StageSend, OutcomeOK, 118) }); n != 0 {
		t.Fatalf("nil Record allocates %v per op, want 0", n)
	}
}

// BenchmarkRecord measures the enabled recorder; BenchmarkRecordNil
// the disabled one (a nil check), the WithFlightRecorder(0) cost.
func BenchmarkRecord(b *testing.B) {
	r := New(64, time.Now())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(StageSend, OutcomeOK, 118)
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(StageSend, OutcomeOK, 118)
	}
}

func BenchmarkEvents(b *testing.B) {
	r := New(64, time.Now())
	for i := 0; i < 100; i++ {
		r.Record(StageRecv, OutcomeOK, i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Events()
	}
}
