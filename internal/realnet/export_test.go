package realnet

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
