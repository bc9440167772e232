//go:build !linux || starlink.nobatch

package realnet

import "net/netip"

// The portable build — non-Linux, and the `starlink.nobatch` CI leg —
// has one syscall per datagram in both directions: the read loop runs
// over the portable receive primitive and every fan-out is serial.

func newReceiver(s *udpSocket) receiver { return newPortableReceiver(s) }

type batchState struct{}

func (s *udpSocket) fanoutBatch(data []byte, dsts []netip.AddrPort) error {
	return s.fanoutSerial(data, dsts)
}
