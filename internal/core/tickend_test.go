package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
)

// tickEndCase is one configuration of TestTickEndDecisionsOnlySaveEvents.
type tickEndCase struct {
	page     PagePolicy
	pattern  string // linear, random, dramaware or trace
	itt      string // zero, paced or latency: the read latency
	readPct  int
	frontend sim.Tick
	lowPower string // off, powerdown or selfrefresh
	smallBuf bool   // a read buffer smaller than the window
}

func (c tickEndCase) String() string {
	return fmt.Sprintf("%v/%s/itt=%s/reads=%d/fe=%v/%s/smallbuf=%v",
		c.page, c.pattern, c.itt, c.readPct, c.frontend, c.lowPower, c.smallBuf)
}

// tickEndRun is what one run leaves: its statistics, Perfetto trace and DRAM
// command stream, its kernel events, and how often a request arrived at a
// tick a response left at.
type tickEndRun struct {
	stats, trace, cmds []byte
	events             uint64
	shared             int
}

// sharedTicks counts the requests the controller accepted at a tick it had
// sent a response at.
type sharedTicks struct {
	respAt sim.Tick
	n      int
}

func (s *sharedTicks) HandleEvent(ev obs.Event) {
	switch e := ev.(type) {
	case obs.ResponseSent:
		s.respAt = e.At
	case obs.PacketEnqueued:
		if e.At == s.respAt {
			s.n++
		}
	}
}

const (
	tickEndRequests = 160
	tickEndWindow   = 8
)

// runTickEnd runs c with the tick-end decision on or off.
func runTickEnd(t *testing.T, c tickEndCase, on bool) tickEndRun {
	t.Helper()
	defer func(was bool) { tickEndDecisions = was }(tickEndDecisions)
	tickEndDecisions = on

	spec := dram.DDR3_1333_8x8()
	tim := spec.Timing
	k := sim.NewKernel()
	reg := stats.NewRegistry("")
	path := filepath.Join(t.TempDir(), "trace.json")
	tracer, err := obs.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	var cmds bytes.Buffer
	var shared sharedTicks
	hub := obs.NewHub()
	hub.Attach(tracer)
	hub.Attach(obs.CommandFunc(func(cmd power.Command) { fmt.Fprintln(&cmds, cmd) }))
	hub.Attach(&shared)

	cfg := DefaultConfig(spec)
	cfg.Page = c.page
	cfg.FrontendLatency = c.frontend
	cfg.Probes = hub
	if c.smallBuf {
		cfg.ReadBufferSize = tickEndWindow / 2
	}
	switch c.lowPower {
	case "powerdown":
		cfg.PowerDownIdle = 20 * sim.Nanosecond
	case "selfrefresh":
		cfg.PowerDownIdle = 20 * sim.Nanosecond
		cfg.SelfRefreshIdle = 100 * sim.Nanosecond
	}
	ctrl, err := NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}

	var itt sim.Tick
	switch c.itt {
	case "paced":
		itt = 48 * sim.Nanosecond
	case "latency":
		// An idle read's latency, so that its response shares a tick with
		// the next tick of the generator.
		itt = cfg.FrontendLatency + cfg.BackendLatency + tim.TCL + tim.TBURST
		if c.page == Closed || c.page == ClosedAdaptive {
			itt += tim.TRCD
		}
	}
	const burst = 64
	var pattern trafficgen.Pattern
	switch c.pattern {
	case "linear":
		pattern = &trafficgen.Linear{Start: 0, End: 1 << 20, Step: burst, ReadPercent: c.readPct, Seed: 3}
	case "random", "trace":
		// Few distinct addresses, so reads find queued writes to forward.
		pattern = &trafficgen.Random{Start: 0, End: 64 * burst, Align: burst, ReadPercent: c.readPct, Seed: 3}
	case "dramaware":
		dec, err := dram.NewDecoder(spec.Org, cfg.Mapping, 1)
		if err != nil {
			t.Fatal(err)
		}
		da := &trafficgen.DRAMAware{Decoder: dec, StrideBursts: 4, Banks: 4, ReadPercent: c.readPct, Seed: 3}
		if err := da.Validate(); err != nil {
			t.Fatal(err)
		}
		pattern = da
	}
	var issuer interface {
		Port() *mem.RequestPort
		Start()
		Done() bool
	}
	if c.pattern == "trace" {
		// Records share ticks: one in three moves on by itt.
		rng := rand.New(rand.NewSource(5))
		recs := make([]trafficgen.TraceRecord, tickEndRequests)
		var at sim.Tick
		for i := range recs {
			if rng.Intn(3) == 0 {
				at += itt
			}
			addr, isRead := pattern.Next()
			recs[i] = trafficgen.TraceRecord{Tick: at, IsRead: isRead, Addr: addr, Size: burst}
		}
		issuer = trafficgen.NewTracePlayer(k, recs, 0)
	} else {
		gen, err := trafficgen.New(k, trafficgen.Config{RequestBytes: burst, MaxOutstanding: tickEndWindow,
			InterTransaction: itt, Count: tickEndRequests}, pattern, reg, "gen")
		if err != nil {
			t.Fatal(err)
		}
		issuer = gen
	}
	mem.Connect(issuer.Port(), ctrl.Port())
	issuer.Start()
	for !issuer.Done() {
		if k.Now() > sim.Millisecond {
			t.Fatalf("%v did not finish", c)
		}
		k.RunUntil(k.Now() + sim.Microsecond)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := reg.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	return tickEndRun{dump.Bytes(), trace, cmds.Bytes(), k.EventsExecuted(), shared.n}
}

// TestTickEndDecisionsOnlySaveEvents holds the controller's tick-end decision
// (kickScheduler's sim.Kernel.Defer) to the runs without it: over seeded configurations covering page
// policy, pattern, pacing, read share, frontend latency with write-queue
// forwarding, low power and refused requests, the statistics, the Perfetto
// trace and the DRAM command stream are byte-identical with the decision on
// and off, and the run with it fires no more kernel events.
func TestTickEndDecisionsOnlySaveEvents(t *testing.T) {
	pages := []PagePolicy{Open, OpenAdaptive, Closed, ClosedAdaptive}
	patterns := []string{"linear", "random", "dramaware", "trace"}
	itts := []string{"zero", "paced", "latency"}
	readPcts := []int{100, 50, 0}
	frontends := []sim.Tick{0, DefaultConfig(dram.DDR3_1333_8x8()).FrontendLatency}
	lowPowers := []string{"off", "powerdown", "selfrefresh"}

	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	var saved uint64
	shared := 0
	const cases = 96
	for i := range cases {
		// Case i takes the i-th value of each axis, shifted by a seeded
		// draw, so every value runs and the combinations vary.
		pick := func(n int) int { return (i + rng.Intn(n)) % n }
		c := tickEndCase{
			page:     pages[pick(len(pages))],
			pattern:  patterns[pick(len(patterns))],
			itt:      itts[pick(len(itts))],
			readPct:  readPcts[pick(len(readPcts))],
			frontend: frontends[pick(len(frontends))],
			lowPower: lowPowers[pick(len(lowPowers))],
			smallBuf: pick(2) == 0,
		}
		for _, v := range []string{c.page.String(), c.pattern, "itt=" + c.itt, fmt.Sprint("reads=", c.readPct),
			fmt.Sprint("fe=", c.frontend), c.lowPower, fmt.Sprint("smallbuf=", c.smallBuf)} {
			seen[v] = true
		}
		on, off := runTickEnd(t, c, true), runTickEnd(t, c, false)
		for _, d := range []struct {
			what      string
			got, want []byte
		}{{"statistics", on.stats, off.stats}, {"Perfetto trace", on.trace, off.trace}, {"command stream", on.cmds, off.cmds}} {
			if !bytes.Equal(d.got, d.want) {
				t.Errorf("%v: %s differ with the tick-end decision on (%d and %d bytes)", c, d.what, len(d.got), len(d.want))
			}
		}
		if on.events > off.events {
			t.Errorf("%v: %d events with the tick-end decision on, %d with it off", c, on.events, off.events)
		}
		saved += off.events - min(on.events, off.events)
		shared += off.shared
	}
	if want := len(pages) + len(patterns) + len(itts) + len(readPcts) + len(frontends) + len(lowPowers); len(seen) != want+2 {
		t.Errorf("the cases reached %d axis values, want %d: %v", len(seen), want+2, seen)
	}
	if saved == 0 {
		t.Error("the tick-end decision saved no event in any case")
	}
	if shared == 0 {
		t.Error("no request arrived at a tick a response left at")
	}
}
