package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The gated timings are CPU time, read from the kernel's CPU clocks
// (clock_gettime, Linux clock ids). On a virtual machine the kernel
// leaves out of them the time the hypervisor gave the machine's
// virtual CPUs to other guests (steal). On a shared 2-vCPU VM, steal
// came in stretches of minutes that took up to a quarter of the CPU;
// across runs in and out of them, wall-clock query medians moved by up
// to 40%, p90s, recovery and set-up by up to 80%, and the CPU times of
// the same runs by up to 18%. The largest bound a metric may have is
// 0.25.
// Wall-clock figures are still measured and reported beside them
// (bench.* and core.ingest_ack_* per-layer metrics, and the summary
// table of every run).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time all of the process's threads have used:
// a query's own work wherever its goroutines run, plus the garbage
// collection its allocations cause.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used; the caller
// holds its thread (runtime.LockOSThread) across the interval it times.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
