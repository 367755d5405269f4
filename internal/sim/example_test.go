package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// A kernel executes scheduled events in deterministic time order; the
// callbacks themselves schedule follow-up work.
func ExampleKernel() {
	k := sim.NewKernel()
	k.Schedule(sim.NewEvent("hello", func() {
		fmt.Printf("hello at %s\n", k.Now())
		k.Schedule(sim.NewEvent("world", func() {
			fmt.Printf("world at %s\n", k.Now())
		}), k.Now()+5*sim.Nanosecond)
	}), 10*sim.Nanosecond)
	k.Run()
	fmt.Printf("done after %d events\n", k.EventsExecuted())
	// Output:
	// hello at 10ns
	// world at 15ns
	// done after 2 events
}

// Ticks are picoseconds; frequencies convert to periods.
func ExampleFrequency_Period() {
	fmt.Println((2 * sim.GHz).Period())
	fmt.Println((200 * sim.MHz).Period())
	// Output:
	// 500ps
	// 5ns
}
