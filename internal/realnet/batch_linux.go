//go:build linux && !starlink.nobatch

package realnet

import (
	"fmt"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"

	"starlink/internal/netapi"
)

// mmsghdr mirrors the kernel's struct mmsghdr. No explicit padding:
// Go's implicit trailing padding of the embedded Msghdr matches the
// kernel layout on both 64-bit (56+4 → 64) and 32-bit (28+4 → 32)
// ABIs.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
}

// sysSENDMMSG is sendmmsg(2)'s syscall number. The stdlib syscall
// tables on linux/amd64 and linux/386 predate the syscall, so the
// numbers are spelled here for every arch; 0 (unknown arch) makes the
// multicast fan-out fall back to serial sends while recvmmsg — whose
// number the stdlib does carry everywhere — keeps batching.
var sysSENDMMSG = func() uintptr {
	switch runtime.GOARCH {
	case "amd64":
		return 307
	case "386":
		return 345
	case "arm":
		return 374
	case "arm64", "riscv64", "loong64":
		return 269
	case "ppc64", "ppc64le":
		return 349
	case "s390x":
		return 358
	case "mips", "mipsle":
		return 4343
	case "mips64", "mips64le":
		return 5302
	}
	return 0
}()

// putSockaddr fills an IPv4 sockaddr. Port is raw memory in network
// byte order (the stdlib idiom), not a host-order uint16.
func putSockaddr(sa *syscall.RawSockaddrInet4, ip netip.Addr, port uint16) {
	sa.Family = syscall.AF_INET
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0] = byte(port >> 8)
	p[1] = byte(port)
	sa.Addr = ip.Unmap().As4()
}

// sockaddrPort reads the (network byte order) port.
func sockaddrPort(sa *syscall.RawSockaddrInet4) uint16 {
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	return uint16(p[0])<<8 | uint16(p[1])
}

// mmsgVec is the parallel header / iovec / sockaddr vectors one
// recvmmsg or sendmmsg call works on. size reuses their storage, so a
// steady-state socket allocates none.
type mmsgVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
}

// size makes the vectors n slots long.
func (v *mmsgVec) size(n int) {
	if cap(v.hdrs) < n {
		clear(v.iovs[:cap(v.iovs)]) // the vectors left behind must not pin buffers
		v.hdrs = make([]mmsghdr, n)
		v.iovs = make([]syscall.Iovec, n)
		v.names = make([]syscall.RawSockaddrInet4, n)
	}
	v.hdrs, v.iovs, v.names = v.hdrs[:n], v.iovs[:n], v.names[:n]
}

// set points slot i at data and at its own sockaddr. The header is
// rebuilt whole: the vectors may have moved, and the kernel overwrites
// Namelen, Flags and msgLen on every return.
func (v *mmsgVec) set(i int, data []byte) {
	iov := &v.iovs[i]
	iov.Base = nil
	if len(data) > 0 {
		iov.Base = &data[0]
	}
	iov.SetLen(len(data))
	v.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
		Name:    (*byte)(unsafe.Pointer(&v.names[i])),
		Namelen: uint32(unsafe.Sizeof(v.names[i])),
		Iov:     iov,
		Iovlen:  1,
	}}
}

// ---------------------------------------------------------------------
// Receive: one recvmmsg fills the read loop's slab.
// ---------------------------------------------------------------------

// mmsgReceiver is the Linux receive primitive. It lives inside its
// socket (batchState) with the first slot of its vectors inline, so a
// socket that never grows its slab allocates only the raw-conn callback
// — built once, so the hot loop creates no closures.
type mmsgReceiver struct {
	s      *udpSocket
	vec    mmsgVec
	hdr0   [1]mmsghdr
	iov0   [1]syscall.Iovec
	name0  [1]syscall.RawSockaddrInet4
	n      int
	parked bool
	errno  syscall.Errno
	fn     func(uintptr) bool
}

func newReceiver(s *udpSocket) receiver {
	r := &s.batch.recv
	r.s = s
	r.vec = mmsgVec{r.hdr0[:], r.iov0[:], r.name0[:]}
	r.fn = func(fd uintptr) bool {
		if s.slab[0] == nil {
			// Readable again: lease the buffer the wait went without.
			s.slab.Refill()
			r.vec.set(0, s.slab[0].Backing())
		}
		for {
			n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.vec.hdrs[0])), uintptr(len(s.slab)), 0, 0, 0)
			switch errno {
			case 0:
				r.n = int(n)
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				// The queue is empty: give every buffer back, then park in
				// the netpoller until readable. An idle socket — a
				// listener between requests, a requester nobody borrows —
				// pins no pool memory at all.
				r.parked = true
				s.slab = s.slab.Resize(1)
				s.slab.Release()
				// The iovecs point into the released buffers: clear
				// them, or the parked socket pins 64 KiB apiece.
				clear(r.vec.iovs[:cap(r.vec.iovs)])
				return false
			default:
				r.errno = errno
				return true
			}
		}
	}
	return r
}

// recv rebuilds the slab's live slots — Refill may have swapped buffers
// in, Resize may have changed their number — and performs one recvmmsg.
func (r *mmsgReceiver) recv() (int, bool, error) {
	slab := r.s.slab
	r.vec.size(len(slab))
	for i, buf := range slab {
		r.vec.set(i, buf.Backing())
	}
	r.n, r.parked, r.errno = 0, false, 0
	if err := r.s.rc.Read(r.fn); err != nil {
		return 0, r.parked, err
	}
	if r.errno != 0 {
		return 0, r.parked, r.errno
	}
	netapi.CountRecvBatch(r.n)
	return r.n, r.parked, nil
}

func (r *mmsgReceiver) datagram(i int) (int, netip.AddrPort) {
	sa := &r.vec.names[i]
	return int(r.vec.hdrs[i].msgLen), netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), sockaddrPort(sa))
}

// ---------------------------------------------------------------------
// Batched send: one sendmmsg fans a datagram out to all group members.
// ---------------------------------------------------------------------

// sendBatcher is the multicast fan-out's reusable syscall state,
// guarded by the socket's sendMu.
type sendBatcher struct {
	vec   mmsgVec
	next  int
	errno syscall.Errno
	fn    func(uintptr) bool
}

func (sb *sendBatcher) init() {
	sb.fn = func(fd uintptr) bool {
		hdrs := sb.vec.hdrs
		for sb.next < len(hdrs) {
			r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&hdrs[sb.next])),
				uintptr(len(hdrs)-sb.next), 0, 0, 0)
			switch errno {
			case 0:
				netapi.CountSendBatch(int(r))
				sb.next += int(r)
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park until writable, resume from next
			default:
				sb.errno = errno
				return true
			}
		}
		return true
	}
}

// batchState is the per-socket scratch the Linux syscall paths hang off
// udpSocket; the portable build replaces it with an empty struct.
type batchState struct {
	send sendBatcher
	recv mmsgReceiver
}

// fanoutBatch transmits data to every destination with as few
// sendmmsg calls as the socket buffer allows (one, when not full).
// Caller holds s.sendMu. Unknown-arch builds (sysSENDMMSG == 0) fall
// back to serial sends.
func (s *udpSocket) fanoutBatch(data []byte, dsts []netip.AddrPort) error {
	if sysSENDMMSG == 0 {
		return s.fanoutSerial(data, dsts)
	}
	sb := &s.batch.send
	if sb.fn == nil {
		sb.init()
	}
	sb.vec.size(len(dsts))
	for i, dst := range dsts {
		putSockaddr(&sb.vec.names[i], dst.Addr(), dst.Port())
		sb.vec.set(i, data)
	}
	sb.next = 0
	sb.errno = 0
	err := s.rc.Write(sb.fn)
	runtime.KeepAlive(data)
	if err != nil {
		return fmt.Errorf("realnet: multicast sendmmsg: %w", err)
	}
	if sb.errno != 0 {
		return fmt.Errorf("realnet: multicast sendmmsg: %w", sb.errno)
	}
	return nil
}
