package sim

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
	if Millisecond.Millis() != 1.0 {
		t.Fatalf("Millisecond.Millis() = %v", Millisecond.Millis())
	}
	if FromSeconds(1.5) != Second+500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if FromSeconds(-1) != 0 {
		t.Fatalf("FromSeconds(-1) should clamp to 0")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{2 * Second, "2.000s"},
		{3 * Millisecond, "3.000ms"},
		{4 * Microsecond, "4.000us"},
		{5 * Nanosecond, "5.000ns"},
		{7, "7ps"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleFunc(30, func() { order = append(order, 3) })
	e.ScheduleFunc(10, func() { order = append(order, 1) })
	e.ScheduleFunc(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleFunc(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.AfterFunc(10, func() {
		times = append(times, e.Now())
		e.AfterFunc(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.AfterFunc(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("AfterFunc(-5) should fire immediately")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleFunc(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.ScheduleFunc(5, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.ScheduleFunc(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want 2 events", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	e.RunFor(3)
	if len(fired) != 3 || e.Now() != 15 {
		t.Fatalf("after RunFor(3): fired=%v now=%v", fired, e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestFiredAndPending(t *testing.T) {
	e := NewEngine()
	e.ScheduleFunc(1, func() {})
	e.ScheduleFunc(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if e.Fired() != 2 || e.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d", e.Fired(), e.Pending())
	}
}

func TestScheduleFuncRecyclesThroughFreeList(t *testing.T) {
	e := NewEngine()
	e.ScheduleFunc(1, func() {})
	e.Step()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after pooled fire, want 1", len(e.free))
	}
	recycled := e.free[0]
	e.ScheduleFunc(2, func() {})
	if len(e.free) != 0 {
		t.Fatal("pooled schedule should take the free-list slot")
	}
	if e.events[0] != recycled {
		t.Fatal("pooled schedule should reuse the recycled Event")
	}
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after drain, want 1", len(e.free))
	}
}

// A callback that immediately reschedules itself must reuse its own slot:
// the whole chain runs on a single allocation.
func TestPooledRescheduleInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			e.AfterFunc(1, tick)
		}
	}
	e.AfterFunc(1, tick)
	e.Run()
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events, want the single reused slot", len(e.free))
	}
}

// Events at the same instant must still fire FIFO when they are recycled
// mid-instant.
func TestPooledPreservesSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for round := 0; round < 3; round++ {
		e.ScheduleFunc(5, func() { order = append(order, len(order)) })
		e.AfterFunc(5, func() { order = append(order, len(order)) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order broken: %v", order)
		}
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// order they were scheduled in.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.ScheduleFunc(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// With Cancel gone, a caller drops a pending event by guarding its callback
// with a flag (the kernel's wait queues treat stale wakes the same way). The
// event still pops, so RunUntil must land the clock on the boundary even
// when the only event in the window does nothing.
func TestRunUntilSkipsCancelled(t *testing.T) {
	e := NewEngine()
	cancelled := false
	e.ScheduleFunc(5, func() {
		if !cancelled {
			t.Fatal("should not fire")
		}
	})
	cancelled = true
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %v", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want the cancelled event popped", e.Pending())
	}
}

// Caller-side cancellation, from inside an earlier callback and between
// windows, across RunUntil boundaries.
func TestRunUntilInterleavedCancellations(t *testing.T) {
	e := NewEngine()
	var fired []Time
	cancelled := map[Time]bool{}
	for _, ts := range []Time{5, 10, 15, 20, 25, 30} {
		ts := ts
		e.ScheduleFunc(ts, func() {
			if !cancelled[ts] {
				fired = append(fired, ts)
			}
		})
	}
	// Cancel a future event from inside an earlier one.
	e.ScheduleFunc(6, func() { cancelled[15] = true })
	e.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("window 1 fired %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	// Cancel between windows.
	cancelled[20] = true
	e.RunUntil(22)
	if len(fired) != 2 {
		t.Fatalf("window 2 fired %v, want nothing new (15, 20 cancelled)", fired)
	}
	if e.Now() != 22 {
		t.Fatalf("Now = %v, want 22 even with all window events cancelled", e.Now())
	}
	// Cancelling what already fired changes nothing.
	cancelled[10] = true
	e.Run()
	if want := []Time{5, 10, 25, 30}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("final fired %v, want %v", fired, want)
	}
}

// RunUntil with events scheduled between windows and from inside earlier
// callbacks fires exactly the due events and still lands the clock on every
// requested boundary, including a window with nothing to fire.
func TestRunUntilInterleavedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	at := func(ts Time) func() { return func() { fired = append(fired, ts) } }
	for _, ts := range []Time{5, 10, 25} {
		e.ScheduleFunc(ts, at(ts))
	}
	// Schedule a later event from inside an earlier one.
	e.ScheduleFunc(6, func() { e.AfterFunc(24, at(30)) })
	e.RunUntil(12)
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("window 1 fired %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	e.RunUntil(22)
	if len(fired) != 2 || e.Now() != 22 {
		t.Fatalf("empty window fired %v, now %v; want nothing new and now 22", fired, e.Now())
	}
	// Schedule between windows.
	e.ScheduleFunc(27, at(27))
	e.Run()
	if want := []Time{5, 10, 25, 27, 30}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("final fired %v, want %v", fired, want)
	}
}

// Every event is recycled: a drained engine holds each event it ever
// allocated on its free list, and nothing else.
func TestEveryEventIsRecycled(t *testing.T) {
	e := NewEngine()
	e.ScheduleFunc(1, func() {})
	e.AfterFunc(2, func() {})
	e.Run()
	if len(e.free) != 2 {
		t.Fatalf("free list has %d events after draining two, want 2", len(e.free))
	}
}
