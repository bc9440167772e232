package bench

import (
	"runtime"
	"testing"
	"time"
)

func TestRunParallelIngest(t *testing.T) {
	res, err := RunParallelIngest(4, 8, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 200 {
		t.Fatalf("packets = %d, want 200", res.Packets)
	}
	if res.PacketsPerSec <= 0 {
		t.Fatalf("throughput = %v", res.PacketsPerSec)
	}
}

func TestRunParallelIngestRejectsBadShape(t *testing.T) {
	if _, err := RunParallelIngest(0, 1, 1); err == nil {
		t.Fatal("0 endpoints should fail")
	}
	if _, err := RunParallelIngest(1, 0, 1); err == nil {
		t.Fatal("0 senders should fail")
	}
	if _, err := RunParallelIngest(1, 1, 0); err == nil {
		t.Fatal("0 packets should fail")
	}
}

// A datagram the host drops must cost its sender one retransmission
// timeout, not the run: senders count acks, so before they retransmitted
// a single loss stalled the window until the 5 s ack timeout failed it.
func TestIngestRetransmitsLostDatagram(t *testing.T) {
	rig, err := newIngestRig(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	const lost = 3
	rig.lose.Store(lost)
	start := time.Now()
	if _, err := rig.run(400); err != nil {
		t.Fatal(err)
	}
	if got := rig.retransmits.Load(); got < lost {
		t.Fatalf("retransmits = %d, want at least the %d datagrams lost", got, lost)
	}
	if d := time.Since(start); d >= ingestAckTimeout {
		t.Fatalf("run took %s: the losses were waited out, not retransmitted", d)
	}
}

// BenchmarkParallelIngest is the PR 5 ingest-saturation scenario: N
// endpoints × M senders over real loopback sockets, with a
// classification-sized CPU cost per datagram. Under the retired global
// dispatcher lock this could not exceed one core; per-endpoint serial
// execution lets it scale with GOMAXPROCS. Compare runs with
// `go run ./cmd/benchdiff BENCH_PR5_BASELINE.txt <new>.txt`.
func BenchmarkParallelIngest(b *testing.B) {
	rig, err := newIngestRig(8, 32)
	if err != nil {
		b.Fatal(err)
	}
	defer rig.Close()
	b.ResetTimer()
	elapsed, err := rig.run(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if sec := elapsed.Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "pkts/s")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}
