package netapi

import "sync/atomic"

// IOStats is a snapshot of the process-wide transport syscall
// counters. They exist to pin batching structurally: wall-clock gains
// from recvmmsg/sendmmsg are noisy on small CI boxes, but "the ingest
// scenario completed N packets in far fewer than N receive syscalls"
// is a deterministic, assertable fact. The collector exposes them as
// starlink_udp_*/starlink_stream_* series.
type IOStats struct {
	// RecvBatches counts batched receive syscalls (recvmmsg) that
	// returned at least one datagram; RecvBatchPackets counts the
	// datagrams they returned, so RecvBatchPackets/RecvBatches is the
	// mean batch size. RecvMultiBatches counts the batches that
	// carried more than one datagram — the series promcheck asserts
	// nonzero under ingest saturation.
	RecvBatches      uint64
	RecvBatchPackets uint64
	RecvMultiBatches uint64
	// RecvSingles counts per-datagram receives on the portable path
	// (non-Linux, the no-batch build tag, or batching disabled at
	// runtime).
	RecvSingles uint64

	// SendBatches counts batched send syscalls (sendmmsg) on the
	// multicast fan-out; SendBatchPackets counts the datagrams they
	// carried. SendSingles counts per-datagram sends (unicast and the
	// portable fan-out).
	SendBatches      uint64
	SendBatchPackets uint64
	SendSingles      uint64

	// StreamFlushes counts stream writes, one per Send.
	StreamFlushes uint64
}

var ioStats struct {
	recvBatches      atomic.Uint64
	recvBatchPackets atomic.Uint64
	recvMultiBatches atomic.Uint64
	recvSingles      atomic.Uint64
	sendBatches      atomic.Uint64
	sendBatchPackets atomic.Uint64
	sendSingles      atomic.Uint64
	streamFlushes    atomic.Uint64
}

// CountRecvBatch records one batched receive syscall that returned n
// datagrams.
func CountRecvBatch(n int) {
	ioStats.recvBatches.Add(1)
	ioStats.recvBatchPackets.Add(uint64(n))
	if n > 1 {
		ioStats.recvMultiBatches.Add(1)
	}
}

// CountRecvSingle records one per-datagram receive on the portable
// path.
func CountRecvSingle() { ioStats.recvSingles.Add(1) }

// CountSendBatch records one batched send syscall that carried n
// datagrams.
func CountSendBatch(n int) {
	ioStats.sendBatches.Add(1)
	ioStats.sendBatchPackets.Add(uint64(n))
}

// CountSendSingle records one per-datagram send.
func CountSendSingle() { ioStats.sendSingles.Add(1) }

// CountStreamFlush records one stream write.
func CountStreamFlush() { ioStats.streamFlushes.Add(1) }

// ReadIOStats snapshots the process-wide transport counters. Like
// LeasedBuffers, the counters are monotonic and process-global:
// meaningful as a before/after delta around a scoped run.
func ReadIOStats() IOStats {
	return IOStats{
		RecvBatches:      ioStats.recvBatches.Load(),
		RecvBatchPackets: ioStats.recvBatchPackets.Load(),
		RecvMultiBatches: ioStats.recvMultiBatches.Load(),
		RecvSingles:      ioStats.recvSingles.Load(),
		SendBatches:      ioStats.sendBatches.Load(),
		SendBatchPackets: ioStats.sendBatchPackets.Load(),
		SendSingles:      ioStats.sendSingles.Load(),
		StreamFlushes:    ioStats.streamFlushes.Load(),
	}
}
