package main

import (
	"container/heap"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU host ten nginx-full runs
// at seeds 1–10 had a median of 3.6 s of CPU time per iteration in one
// quarter of an hour and 2.8 s in the next, with the program unchanged,
// because other tenants share the caches and execution units the
// simulator runs on. The parent therefore times a fixed calibration kernel
// before every iteration and after the last, and reports host times scaled
// to a reference speed: the speed at which one calibration pass takes
// calibrationRef of CPU time. The kernel is code of the benchmark's own that no change to the
// simulator touches, so a change that makes the simulator faster or
// slower moves the scaled times by as much as the raw ones.
//
// The kernel is a miniature of what the simulator does per event: pop the
// next event off a heap, dispatch it through an interface to a component
// that probes a tag array or a map, hand off to a coroutine goroutine now
// and then, and schedule the next event. Over a five-minute nginx-full
// run, scaling by this kernel halved the spread of ten-iteration means
// (0.10 to 0.06), where scaling by JSON round trips left it as it was; an
// arithmetic loop and random reads over 32 MB moved far less than the
// simulator did.
const (
	calibrationEvents = 300_000
	calibrationRef    = 150 * time.Millisecond
)

type calEvent struct {
	at   int64
	comp int
}

type calQueue []calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

type calComponent interface{ fire(x uint64) uint64 }

// calTags is a direct-mapped tag array: a cache model's inner lookup.
type calTags []uint64

func (t calTags) fire(x uint64) uint64 {
	i := x % uint64(len(t))
	if t[i] == x>>20 {
		return 1
	}
	t[i] = x >> 20
	return 3
}

// calTable is a map-backed component: a kernel table or a stream cache.
type calTable map[uint64]uint64

func (t calTable) fire(x uint64) uint64 {
	k := x & 0xffff
	t[k] += x
	return t[k] & 7
}

// calibrate runs one pass of the calibration kernel on fresh state and
// returns the CPU time the pass took, with the kernel's checksum so the
// work cannot be optimized away and tests can check it is the same work
// every time.
func calibrate() (time.Duration, uint64) {
	comps := []calComponent{make(calTags, 1<<20), make(calTable), make(calTags, 1<<16)}
	q := &calQueue{}
	for i := 0; i < 64; i++ {
		heap.Push(q, calEvent{at: int64(i), comp: i % len(comps)})
	}
	req, resp := make(chan uint64), make(chan uint64)
	go func() {
		for x := range req {
			resp <- x*2654435761 + 1
		}
		close(resp)
	}()

	start := cpuNow()
	x := uint64(88172645463325252)
	var sum uint64
	for i := 0; i < calibrationEvents; i++ {
		e := heap.Pop(q).(calEvent)
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d := comps[e.comp].fire(x)
		if i%16 == 0 {
			req <- x
			sum += <-resp
		}
		sum += d
		heap.Push(q, calEvent{at: e.at + int64(d) + int64(x&15), comp: int(x % uint64(len(comps)))})
	}
	took := cpuNow() - start
	close(req)
	for range resp {
	}
	return took, sum
}
