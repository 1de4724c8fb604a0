package main

import (
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Job costs are measured in CPU time rescaled by a speed probe, not in wall
// time. On a shared virtual machine the host steals CPU time (a quarter of
// it on the machine the benchmark was sized on) and neighbours slow the CPU
// down, so the same jobs' wall times swing by 20-70% between runs minutes
// apart, and even their CPU times by 10-15%. The probe is a fixed piece of
// work that is not part of the program; dividing by its CPU time, measured
// right before every job, cancels most of the host's speed changes.

// probeRef is the probe's median CPU time on the lightly loaded 2-vCPU
// machine the benchmark was sized on. Rescaled times read as CPU seconds on
// that machine.
const probeRef = 15 * time.Millisecond

// cpuTime returns the CPU time the process has used so far, in user and
// kernel mode over all threads. It leaves out time the host steals.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD. Other systems reject it, and the
// probe then counts the CPU time of the whole process.
const rusageThread = 1

// probe runs the speed probe on a locked thread and returns that thread's
// CPU time, so no other goroutine's work (a server's, the collector's) is
// counted. Like the cleaner it is map- and string-heavy and allocates a few
// MB, so host contention slows it about as much as it slows a job.
func probe() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(rusageThread, &ru); err != nil {
			return cpuTime()
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	start := cpu()
	m := make(map[string]int)
	for i := 0; i < 20000; i++ {
		m[strconv.Itoa(i*7919)] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return cpu() - start
}

// clock marks a point in both wall and CPU time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock { return clock{time.Now(), cpuTime()} }

func (c clock) since() (wall, cpu time.Duration) { return time.Since(c.wall), cpuTime() - c.cpu }
