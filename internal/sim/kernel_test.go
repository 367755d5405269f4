package sim

import (
	"maps"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTickUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Second != 1e12 {
		t.Fatalf("Second = %d, want 1e12", Second)
	}
	if got := Tick(13750).Nanoseconds(); got != 13.75 {
		t.Fatalf("13750 ticks = %v ns, want 13.75", got)
	}
}

func TestTickString(t *testing.T) {
	cases := []struct {
		in   Tick
		want string
	}{
		{500, "500ps"},
		{13750, "13.75ns"},
		{5 * Microsecond, "5us"},
		{2 * Second, "2s"},
		{MaxTick, "max"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Tick(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFrequencyPeriod(t *testing.T) {
	cases := []struct {
		f    Frequency
		want Tick
	}{
		{1 * GHz, 1000},
		{2 * GHz, 500},
		{666 * MHz, 1502}, // 1.501501...ns rounds to 1502 ps
		{200 * MHz, 5000},
	}
	for _, c := range cases {
		if got := c.f.Period(); got != c.want {
			t.Errorf("Period(%v Hz) = %d, want %d", float64(c.f), got, c.want)
		}
	}
}

func TestFrequencyPeriodPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Period(0) did not panic")
		}
	}()
	Frequency(0).Period()
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	add := func(id int, when Tick, pri Priority) {
		k.Schedule(NewEventPri("e", pri, func() { order = append(order, id) }), when)
	}
	add(3, 30, DefaultPriority)
	add(1, 10, DefaultPriority)
	add(2, 20, DefaultPriority)
	add(0, 10, MinPriority) // same tick as 1, lower priority value => first
	k.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30 {
		t.Fatalf("Now = %d, want 30", k.Now())
	}
	if k.EventsExecuted() != 4 {
		t.Fatalf("executed = %d, want 4", k.EventsExecuted())
	}
}

func TestKernelFIFOWithinTickAndPriority(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(NewEvent("e", func() { order = append(order, i) }), 5)
	}
	k.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("insertion order not preserved at %d: %v", i, order[:i+1])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(NewEvent("a", func() {}), 100)
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.Schedule(NewEvent("b", func() {}), 50)
}

func TestDoubleSchedulePanics(t *testing.T) {
	k := NewKernel()
	e := NewEvent("e", func() {})
	k.Schedule(e, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("double schedule did not panic")
		}
	}()
	k.Schedule(e, 20)
}

func TestDescheduleAndReschedule(t *testing.T) {
	k := NewKernel()
	fired := 0
	e := NewEvent("e", func() { fired++ })
	k.Schedule(e, 10)
	k.Deschedule(e)
	if e.Scheduled() {
		t.Fatal("event still scheduled after Deschedule")
	}
	k.Reschedule(e, 40)
	k.Reschedule(e, 25) // move earlier while scheduled
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("Now = %d, want 25", k.Now())
	}
}

// The census counts every firing by event name: an event rescheduled before
// it fires counts once, a descheduled one not at all, and pooled one-shots
// count under the names they were called by although the kernel recycles
// their events.
func TestCensus(t *testing.T) {
	k := NewKernel()
	var a *Event
	a = NewEvent("a", func() {
		if k.Now() < 30 {
			k.Schedule(a, k.Now()+10)
		}
	})
	b := NewEvent("b", func() {})
	k.Schedule(a, 10)
	k.Schedule(b, 5)
	k.Reschedule(b, 15)
	for i := Tick(0); i < 3; i++ {
		k.Call("call", i, func() {})
	}
	k.Call("other", 2, func() {})
	never := NewEvent("never", func() {})
	k.Schedule(never, 50)
	k.Deschedule(never)
	k.Run()
	want := map[string]uint64{"a": 3, "b": 1, "call": 3, "other": 1}
	if got := k.Census(); !maps.Equal(got, want) {
		t.Fatalf("census %v, want %v", got, want)
	}
	var total uint64
	for _, n := range k.Census() {
		total += n
	}
	if total != k.EventsExecuted() {
		t.Fatalf("census sums to %d of %d events", total, k.EventsExecuted())
	}
}

func TestDescheduleUnscheduledPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("deschedule of unscheduled event did not panic")
		}
	}()
	k.Deschedule(NewEvent("e", func() {}))
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Tick
	for _, w := range []Tick{10, 20, 30, 40} {
		w := w
		k.Schedule(NewEvent("e", func() { fired = append(fired, w) }), w)
	}
	k.RunUntil(25)
	if len(fired) != 2 || k.Now() != 25 {
		t.Fatalf("after RunUntil(25): fired=%v now=%d", fired, k.Now())
	}
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	k.RunUntil(100)
	if len(fired) != 4 || k.Now() != 100 {
		t.Fatalf("after RunUntil(100): fired=%v now=%d", fired, k.Now())
	}
}

// A limit that is already in the past fires nothing and leaves time alone,
// whether or not later events are pending.
func TestRunUntilPastLimitKeepsTime(t *testing.T) {
	k := NewKernel()
	k.Schedule(NewEvent("later", func() {}), 100)
	k.RunUntil(50)
	if now := k.RunUntil(20); now != 50 || k.Pending() != 1 {
		t.Fatalf("RunUntil(20) at tick 50: now=%d pending=%d, want 50 and 1", now, k.Pending())
	}
}

func TestEventScheduledDuringExecution(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(NewEvent("first", func() {
		order = append(order, "first")
		k.Schedule(NewEvent("chained", func() { order = append(order, "chained") }), k.Now()+5)
		// Same-tick follow-up runs after the current event.
		k.Schedule(NewEvent("same", func() { order = append(order, "same") }), k.Now())
	}), 10)
	k.Run()
	want := []string{"first", "same", "chained"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 15 {
		t.Fatalf("Now = %d, want 15", k.Now())
	}
}

// Property: for any set of (tick, priority) pairs, execution order equals the
// stable sort by (tick, priority, insertion index).
func TestKernelOrderProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		type job struct {
			when Tick
			pri  Priority
			idx  int
		}
		jobs := make([]job, count)
		k := NewKernel()
		var got []int
		for i := 0; i < count; i++ {
			jobs[i] = job{Tick(rng.Intn(50)), Priority(rng.Intn(5) - 2), i}
			j := jobs[i]
			k.Schedule(NewEventPri("e", j.pri, func() { got = append(got, j.idx) }), j.when)
		}
		sort.SliceStable(jobs, func(a, b int) bool {
			if jobs[a].when != jobs[b].when {
				return jobs[a].when < jobs[b].when
			}
			return jobs[a].pri < jobs[b].pri
		})
		k.Run()
		if len(got) != count {
			return false
		}
		for i := range jobs {
			if got[i] != jobs[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never executes events beyond the limit and never leaves
// time beyond the limit.
func TestRunUntilProperty(t *testing.T) {
	prop := func(seed int64, limRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		limit := Tick(limRaw % 1000)
		ok := true
		for i := 0; i < 100; i++ {
			when := Tick(rng.Intn(2000))
			k.Schedule(NewEvent("e", func() {
				if k.Now() > limit {
					ok = false
				}
			}), when)
		}
		k.RunUntil(limit)
		return ok && k.Now() == limit
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
