package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The benchmark runs on shared virtual machines, where the hypervisor
// steals CPU time from the guest: a runnable vCPU waits while the host
// runs someone else. Steal stretches every wall-clock interval by an
// amount that depends on the neighbours, not on this program, and it
// varied from 1% to 45% of CPU between runs on the 2-vCPU machine the
// benchmark was tuned on. CPU time excludes it (the guest kernel accounts
// steal separately), so an interval is reported net of steal as
//
//	wall × cpu / (cpu + steal)
//
// that is, every runnable stretch is shrunk by the share of runnable time
// the host took. Without steal this is the wall time itself.

// vmTimes reads the VM's cumulative busy and steal time over all CPUs
// from /proc/stat, in seconds (0, 0 where the file does not exist).
func vmTimes() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	sec := func(i int) float64 {
		ticks, _ := strconv.ParseFloat(f[i], 64)
		return ticks / 100 // USER_HZ
	}
	// user, nice, system, irq, softirq; then steal.
	return sec(1) + sec(2) + sec(3) + sec(6) + sec(7), sec(8)
}

func stealSeconds() float64 {
	_, steal := vmTimes()
	return steal
}

// cpuSeconds is user plus system time in a rusage record.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// netOfSteal applies the formula above.
func netOfSteal(wall, cpu, steal float64) float64 {
	if cpu+steal <= 0 {
		return wall
	}
	return wall * cpu / (cpu + steal)
}

// stealShare is the share of runnable time the host took.
func stealShare(cpu, steal float64) float64 { return ratio(steal, cpu+steal) }

// interval measures one stretch of this process's work.
type interval struct {
	t0           time.Time
	cpu0, steal0 float64
}

func startInterval() interval {
	return interval{t0: time.Now(), cpu0: selfCPU(), steal0: stealSeconds()}
}

// end returns the raw wall time, the process's CPU time and the VM's
// steal over the interval.
func (iv interval) end() (wall, cpu, steal float64) {
	return time.Since(iv.t0).Seconds(), selfCPU() - iv.cpu0, stealSeconds() - iv.steal0
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return cpuSeconds(&ru)
}
