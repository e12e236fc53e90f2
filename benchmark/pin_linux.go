package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU restricts every thread of the generator — and so every
// server it starts, which inherits the mask — to the highest-numbered
// CPU the process may run on, and returns that CPU.
//
// Left to the scheduler, a request/reply loop between two processes on
// two virtual CPUs drifts for seconds at a time between a mode where the
// peer is found spinning and one where every hop wakes a halted CPU:
// sizing runs of kv-closed read 22 000 to 34 000 requests per second
// from one second to the next. On one CPU a hop is a context switch,
// nothing ever halts, and a run measures the length of the whole loop's
// code path — which is what a change to the code moves.
func pinToOneCPU() (int, error) {
	var mask [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(mask)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0])))
	if err := sysErr(errno); err != nil {
		return -1, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1, errors.New("sched_getaffinity returned an empty mask")
	}
	var one [16]uint64
	one[cpu/64] = 1 << (cpu % 64)
	// New threads inherit the mask of the thread that starts them, so a
	// second pass catches any thread started during the first by one
	// not yet pinned.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread that exited since ReadDir answers ESRCH.
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one[0])))
			if err := sysErr(errno); err != nil && !errors.Is(err, syscall.ESRCH) {
				return -1, fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
			}
		}
	}
	return cpu, nil
}

// sysErr turns a raw system call's errno into an error, nil for success.
func sysErr(errno syscall.Errno) error {
	//lint:errclass an errno is a number, and zero is the kernel's "no error"
	if errno != 0 {
		return errno
	}
	return nil
}
