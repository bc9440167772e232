package bench

import (
	"os"
	"testing"
	"time"
)

func TestStats(t *testing.T) {
	s := &Stats{}
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		s.Add(d * time.Millisecond)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Min() != time.Millisecond || s.Max() != 5*time.Millisecond || s.Median() != 3*time.Millisecond {
		t.Fatalf("min/med/max = %v/%v/%v", s.Min(), s.Median(), s.Max())
	}
	if s.Mean() != 3*time.Millisecond {
		t.Fatalf("mean = %v", s.Mean())
	}
	empty := &Stats{}
	if empty.Min() != 0 || empty.Max() != 0 || empty.Median() != 0 || empty.Mean() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestRunNativeAllProtocols(t *testing.T) {
	for _, proto := range NativeOrder {
		d, err := RunNative(proto, 1)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		paper := Fig12a[proto]
		// Shape check: measured medians must land in the same regime as
		// the paper (within a factor ~1.5 of the published median).
		lo, hi := paper.Median/2, paper.Median*3/2
		if d < lo || d > hi {
			t.Errorf("%s: %v outside [%v, %v]", proto, d, lo, hi)
		}
	}
	if _, err := RunNative("CORBA", 1); err == nil {
		t.Fatal("unknown protocol should fail")
	}
}

func TestRunBridgeAllCases(t *testing.T) {
	for _, name := range CaseOrder {
		d, err := RunBridge(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		paper := Fig12b[name]
		lo, hi := paper.Median/2, paper.Median*3/2
		if d < lo || d > hi {
			t.Errorf("%s: %v outside [%v, %v]", name, d, lo, hi)
		}
	}
	if _, err := RunBridge("nope", 1); err == nil {
		t.Fatal("unknown case should fail")
	}
}

// TestFig12Shape verifies the paper's qualitative findings hold on a
// small run: the →SLP bridge cases are dominated by the SLP
// convergence wait; the other four cases cost a fraction of a second;
// native SLP is the slowest native stack.
func TestFig12Shape(t *testing.T) {
	natives, err := RunTable12a(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	bridges, err := RunTable12b(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if natives["SLP"].Median() < natives["UPnP"].Median() ||
		natives["UPnP"].Median() < natives["Bonjour"].Median() {
		t.Errorf("native ordering broken: SLP=%v UPnP=%v Bonjour=%v",
			natives["SLP"].Median(), natives["UPnP"].Median(), natives["Bonjour"].Median())
	}
	for _, slow := range []string{"upnp-to-slp", "bonjour-to-slp"} {
		if bridges[slow].Median() < 6*time.Second {
			t.Errorf("%s median %v; should be dominated by the 6.25s SLP wait", slow, bridges[slow].Median())
		}
	}
	for _, fast := range []string{"slp-to-upnp", "slp-to-bonjour", "upnp-to-bonjour", "bonjour-to-upnp"} {
		if bridges[fast].Median() > 500*time.Millisecond {
			t.Errorf("%s median %v; should be sub-second", fast, bridges[fast].Median())
		}
	}
	// Paper §VI: "in case 1 it is 5 percent" — SLP→UPnP translation is
	// tiny relative to a native SLP lookup.
	if 10*bridges["slp-to-upnp"].Median() > natives["SLP"].Median() {
		t.Errorf("slp-to-upnp %v should be <10%% of native SLP %v",
			bridges["slp-to-upnp"].Median(), natives["SLP"].Median())
	}
	t.Logf("\n%s", Table("Fig. 12(a) Native response times (ms)", NativeOrder, natives, Fig12a))
	t.Logf("\n%s", Table("Fig. 12(b) Starlink translation times (ms)", CaseOrder, bridges, Fig12b))
}

// TestFig12Golden holds the reproduction byte for byte: both tables at
// the paper's 100 runs, seed 9, exactly as `starlink-bench -table both
// -seed 9` prints them. Virtual time is a function of the seed, the
// models and the calibration constants alone, so a diff here is a
// behaviour change, never noise.
func TestFig12Golden(t *testing.T) {
	a, err := Fig12aTable(100, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12bTable(100, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig12_seed9.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := a + "\n" + b + "\n"; got != string(want) {
		t.Errorf("Fig. 12 at seed 9 moved.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	st := &Stats{}
	st.Add(100 * time.Millisecond)
	out := Table("T", []string{"SLP", "missing"}, map[string]*Stats{"SLP": st}, Fig12a)
	if out == "" {
		t.Fatal("empty table")
	}
	for _, want := range []string{"SLP", "(no data)", "[5982/6022/6053]"} {
		if !contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
