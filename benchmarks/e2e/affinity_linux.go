//go:build linux

package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU binds every thread of the process, and through inheritance
// every thread started later, to the lowest-numbered CPU the process may
// run on. One P already serialises the Go code, but threads blocked in
// the kernel — every realnet read loop is one — wake wherever the host
// has a core free, and in which order they then reach the P depends on
// how many cores that is. Pinned, a run takes the same path on two cores
// and on sixteen.
func pinToOneCPU() error {
	var allowed, one [16]uint64 // 1024 CPUs
	size, ptr := unsafe.Sizeof(allowed), func(m *[16]uint64) uintptr { return uintptr(unsafe.Pointer(m)) }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, ptr(&allowed)); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for i, word := range allowed {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	// Twice: a thread started during the first pass may have been started
	// by one the pass had not reached yet.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, ptr(&one))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited since it was listed
				return fmt.Errorf("sched_setaffinity: %w", errno)
			}
		}
	}
	return nil
}
