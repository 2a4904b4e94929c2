package main

import (
	"syscall"
	"time"
)

// cost is the host time one call took: wall clock, and CPU time (user plus
// system, every thread of the process). CPU time is what the end-to-end
// host metrics use: on a shared host, wall clock also counts the time
// other tenants hold the CPU.
type cost struct {
	Wall, CPU time.Duration
}

func (c *cost) add(o cost) {
	c.Wall += o.Wall
	c.CPU += o.CPU
}

// cpuNow returns the CPU time the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// Getrusage(RUSAGE_SELF) fails only for a bad pointer.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed call into a layer's public API. Start and End are host
// wall-clock nanoseconds since the run started, CPU is the process CPU
// time the call used, and Parent is the enclosing span's ID, or -1 at the
// top.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// tracer keeps a run's spans in memory. A nil tracer records nothing, so
// the timed runs pay only for the clock reads the metrics need.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // IDs of the spans enclosing the current call
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// do runs fn inside a span called name and returns the host time fn took.
func (t *tracer) do(name string, fn func()) cost {
	start, cpu0 := time.Now(), cpuNow()
	id := -1
	if t != nil {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.t0).Nanoseconds(),
			Parent: parent, Run: t.run})
		t.open = append(t.open, id)
	}
	fn()
	c := cost{Wall: time.Since(start), CPU: cpuNow() - cpu0}
	if t != nil {
		t.spans[id].End = t.spans[id].Start + c.Wall.Nanoseconds()
		t.spans[id].CPU = c.CPU.Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
	return c
}

// cpuSeconds sums the host CPU seconds of every span called name.
func cpuSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.CPU
		}
	}
	return float64(ns) / 1e9
}
