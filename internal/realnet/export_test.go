package realnet

import (
	"sync/atomic"
	"syscall"
	"time"
)

// NewPortable creates a runtime whose UDP sockets read through the
// portable receive primitive whatever the build carries, so one Linux
// test binary can compare it against recvmmsg.
func NewPortable() *Runtime { return newRuntime(newPortableReceiver) }

// RecvBatch is the size a backlogged socket's slab grows to.
const RecvBatch = recvBatch

// Batched reports whether this build's receive primitive can return
// more than one datagram per read, i.e. whether a slab ever grows.
func Batched() bool {
	_, portable := newReceiver(&udpSocket{}).(*portableReceiver)
	return !portable
}

// SetIOTimeout sets the dial and stream write timeout until the
// returned function restores it; a test calling it must not run in
// parallel with one that dials or sends.
func SetIOTimeout(d time.Duration) (restore func()) {
	old := ioTimeout
	ioTimeout = d
	return func() { ioTimeout = old }
}

var streamReads atomic.Uint64

func init() {
	readFD = func(fd int, p []byte) (int, error) {
		streamReads.Add(1)
		return syscall.Read(fd, p)
	}
}

// StreamReads returns how many read(2) calls the stream read loops have
// made, across every connection of the test binary.
func StreamReads() uint64 { return streamReads.Load() }
