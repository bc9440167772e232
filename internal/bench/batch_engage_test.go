//go:build linux && !starlink.nobatch

package bench

// Structural pin for the recvmmsg fast path: under the ingest-
// saturation scenario the kernel must actually hand the read loops
// multi-datagram batches. If a refactor quietly degrades the hot path
// to one datagram per syscall, throughput benchmarks drift slowly but
// this test fails immediately.

import "testing"

func TestIngestBatchingEngages(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	res, err := RunParallelIngest(4, 16, 20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ingest: %.0f pkts/s, %d recv batches carrying %d datagrams (mean %.2f, %d multi), %d retransmitted",
		res.PacketsPerSec, res.RecvBatches, res.RecvBatchPackets, res.MeanRecvBatch, res.RecvMultiBatches, res.Retransmits)
	if res.RecvBatches == 0 {
		t.Fatal("no batched receives recorded: the recvmmsg path never engaged")
	}
	if res.RecvMultiBatches == 0 {
		t.Fatal("every recvmmsg call returned a single datagram: batching is structurally dead")
	}
	// Saturated loopback ingest with an 8-deep window per sender backs
	// datagrams up in the socket buffer; a healthy batch loop amortises
	// visibly above one datagram per wakeup.
	if res.MeanRecvBatch <= 1.05 {
		t.Fatalf("mean recv batch size %.3f, want > 1.05 under saturation", res.MeanRecvBatch)
	}
}
