package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Machine-speed normalisation. On the reference VM (2 vCPUs of a shared
// host) code runs in two states about 1.6–1.8× apart in speed, set by load
// on the host core outside the VM. The states alternate from every few
// hundred microseconds to every second or more, and the share of slow time
// drifts between about 10% and 90% over minutes, so a raw median measures
// the neighbour rather than the program. Thread CPU time slows down the
// same way as wall time (it is not steal time), and a dependent-chain loop
// does not slow down at all, while code with independent work per cycle
// does: the host core's other hardware thread is busy.
//
// Every timed unit is therefore bracketed by a short fixed reference loop
// (benchmark code with independent integer chains and no memory traffic,
// so the program's allocations and caches cannot change its time), and the
// unit's time is reported in reference nanoseconds: its raw time scaled by
// refLoopNs over the mean of the two loop times around it. refLoopNs is the
// loop's time in the fast state on the reference machine, so on a quiet
// host reference nanoseconds equal raw ones. The raw figures are printed
// beside them on the comment lines.

// refLoopNs is the reference loop's duration in the fast state of the
// reference machine (Xeon, Sapphire Rapids, 2.1 GHz nominal).
const refLoopNs = 850

var refSink uint64

// refLoop runs the fixed reference work and returns its duration in ns.
func refLoop() float64 {
	start := time.Now()
	a, b, c, d := refSink|1, uint64(3), uint64(5), uint64(7)
	e, f, g, h := uint64(11), uint64(13), uint64(17), uint64(19)
	for i := 0; i < 400; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		c = c*6364136223846793005 + 5
		d = d*6364136223846793005 + 7
		e ^= e<<13 ^ a
		f ^= f>>7 ^ b
		g += c ^ (g >> 3)
		h += d ^ (h << 5)
	}
	refSink += a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
	return float64(time.Since(start).Nanoseconds())
}

// refTimer times one unit of work in raw and reference nanoseconds.
type refTimer struct {
	start  time.Time
	before float64
}

// startUnit runs the reference loop and starts the clock.
func startUnit() refTimer {
	before := refLoop()
	return refTimer{start: time.Now(), before: before}
}

// stop stops the clock, runs the reference loop again and returns the
// unit's raw and reference durations in nanoseconds.
func (u refTimer) stop() (raw, ref float64) {
	raw = float64(time.Since(u.start).Nanoseconds())
	after := refLoop()
	return raw, raw * 2 * refLoopNs / (u.before + after)
}

// cpuMask is a sched_setaffinity CPU set (1024 CPUs).
type cpuMask [16]uint64

// pinToOneCPU restricts every thread of the process to the lowest CPU it
// may run on and returns a function that restores the previous set.
// fleet_rollout runs the daemon, its worker and both clients under
// GOMAXPROCS 1; pinned, the reference loop and the work it brackets run on
// the same host core, and requests do not hop between vCPUs. In
// interleaved runs on the reference machine, the default of two
// processors spread adapt_ms about three times as wide while the host was
// busy, and a little wider otherwise (NOTES.md, Noise controls).
func pinToOneCPU() (func(), error) {
	var orig cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(orig), uintptr(unsafe.Pointer(&orig))); e != 0 {
		return nil, e
	}
	var one cpuMask
	for i, w := range orig {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	restore := func() { setAffinity(&orig) } //nolint:errcheck // restoring is best effort
	return restore, setAffinity(&one)
}

// setAffinity applies mask to every thread of the process. Threads started
// meanwhile inherit the mask of their creator, so a second pass catches
// any the first one missed.
func setAffinity(mask *cpuMask) error {
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
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
			if e != 0 && !errors.Is(e, syscall.ESRCH) { // ESRCH: the thread has exited
				return e
			}
		}
	}
	return nil
}
