package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// Regression tests for the FR-FCFS cost function and row-hit scan. Both
// construct the exact mispick the old code made: the cost function ignored
// the shared data bus, and chooseNext treated a row opened during a refresh
// blackout as a ready hit.

// mkRead builds a read burst to (rank, bank, row) for white-box timing
// tests; only the fields issueAt/doDRAMAccess read are populated.
func mkRead(rank, bank int, row uint64, entry sim.Tick) *dramPacket {
	return &dramPacket{
		isRead:    true,
		coord:     dram.Coord{Rank: rank, Bank: bank, Row: row},
		entryTime: entry,
	}
}

// enqueueRead sends a one-burst read of (rank, bank, row) through the port,
// so it reaches the read queue the way every burst does, and returns its
// descriptor. The kernel is not run: the scheduler event it arms stays
// pending while the test asks chooseNext directly.
func (h *harness) enqueueRead(t *testing.T, rank, bank int, row uint64) *dramPacket {
	t.Helper()
	addr := h.c.dec.Encode(dram.Coord{Rank: rank, Bank: bank, Row: row}, 0)
	if !h.send(mem.NewRead(addr, h.c.org.BurstBytes(), 0, h.k.Now())) {
		t.Fatalf("read of rank %d bank %d row %d refused", rank, bank, row)
	}
	return h.c.readQueue.rankBanks(rank)[bank].tail
}

// chooseNextOracle is the scheduler the bank-indexed chooseNext replaced: the
// linear scan over the whole queue in arrival order, one hit test and (when
// no hit is ready) one issueAt per queued burst. It is kept verbatim as the
// reference the product must agree with burst for burst
// (TestChooseNextMatchesLinearScan).
func (c *Controller) chooseNextOracle(q []*dramPacket) int {
	if c.cfg.Scheduling == FCFS || len(q) == 1 {
		return 0
	}
	now := c.k.Now()
	minColAt := max(now, c.busBusyUntil-c.tim.TCL)
	prepped := -1
	for i, p := range q {
		rk, bi := c.ranks[p.coord.Rank], p.coord.Bank
		if rk.openRow[bi] != int64(p.coord.Row) || rk.refreshUntil[bi] > now {
			continue
		}
		if rk.colAllowedAt[bi] <= minColAt {
			return i
		}
		if prepped < 0 {
			prepped = i
		}
	}
	if prepped >= 0 {
		return prepped
	}
	best := -1
	bestAt, bestReady := sim.MaxTick, sim.MaxTick
	for i, p := range q {
		_, _, ready, at := c.issueAt(p)
		if at < bestAt || (at == bestAt && ready < bestReady) {
			best, bestAt, bestReady = i, at, ready
		}
	}
	return best
}

// issueAtOracle is the body of bankIssueAt before the timing rules were split
// into rank, group and bank terms: every term evaluated for the one bank asked
// about. It is kept verbatim as the reference the split must agree with on all
// four ticks (TestChooseNextMatchesLinearScan).
func (c *Controller) issueAtOracle(rk *rank, bi int, hit, isRead bool) (preAt, actAt, ready, cmdAt sim.Tick) {
	t := &c.tim
	now := c.k.Now()

	colReady := rk.colAllowedAt[bi]
	if !hit {
		actAt = max(now, rk.actAllowedAt[bi],
			rk.lastActAt+t.TRRD,
			rk.earliestActByWindow(c.org.ActivationLimit, t.TXAW))
		if c.grouped {
			actAt = max(actAt, rk.actGroupAt[c.topo.GroupOf(bi)]+c.trrdL)
		}
		if rk.openRow[bi] != rowClosed {
			preAt = max(now, rk.preAllowedAt[bi])
			actAt = max(actAt, preAt+t.TRP)
		}
		colReady = actAt + t.TRCD
	}
	dirAllowed := rk.rdAllowedAt
	if !isRead {
		dirAllowed = rk.wrAllowedAt
	}
	ready = max(now, colReady, dirAllowed)
	if c.grouped {
		ready = max(ready, rk.colGroupAt[c.topo.GroupOf(bi)], rk.colAnyAt)
	}
	// The command may overlap in-flight data; only the data transfer itself
	// serialises on the bus, so a command whose data would start before the
	// bus frees is pushed out to follow the in-flight burst back-to-back.
	cmdAt = ready
	if cmdAt+t.TCL < c.busBusyUntil {
		cmdAt = c.busBusyUntil - t.TCL
	}
	return preAt, actAt, ready, cmdAt
}

// checkIssueAt compares issueAt with the oracle for every burst of q.
func checkIssueAt(t *testing.T, c *Controller, q []*dramPacket) {
	t.Helper()
	type ticks struct{ preAt, actAt, ready, cmdAt sim.Tick }
	for _, p := range q {
		rk, bi := c.ranks[p.coord.Rank], p.coord.Bank
		var got, want ticks
		got.preAt, got.actAt, got.ready, got.cmdAt = c.issueAt(p)
		want.preAt, want.actAt, want.ready, want.cmdAt = c.issueAtOracle(rk, bi, rk.openRow[bi] == int64(p.coord.Row), p.isRead)
		if got != want {
			t.Fatalf("burst %d %+v (read=%v): issueAt = %+v, single-level oracle = %+v", p.seq, p.coord, p.isRead, got, want)
		}
	}
}

// With the data bus busy far into the future, the bus — not bank state —
// bounds every candidate's true issue tick. The old cost function ignored
// busBusyUntil entirely; issueAt applies the bus clamp doDRAMAccess
// commits, so bus-bound candidates report identical (honest)
// costs, and the scheduler's secondary key — raw bank readiness, gem5's
// earliestBanks rule — decides among them.
func TestEstimateIssueChargesBusyBus(t *testing.T) {
	h := newHarness(t, nil)
	c := h.c
	tm := &c.tim

	// Two read misses to different banks in the same rank, the second one's
	// bank ready sooner.
	a := h.enqueueRead(t, 0, 0, 3)
	b := h.enqueueRead(t, 0, 1, 7)
	c.ranks[0].actAllowedAt[0] = 10 * sim.Nanosecond
	c.ranks[0].actAllowedAt[1] = 5 * sim.Nanosecond

	// Idle bus: bank state decides; the sooner bank wins.
	if got := c.chooseNext(&c.readQueue); got != b {
		t.Fatalf("idle bus: chooseNext = burst %d, want 1 (sooner bank wins)", got.seq)
	}

	// Bus saturated well past both bank-ready ticks: the estimates must
	// collapse to the bus tick (the cost doDRAMAccess will actually charge)
	// while the choice still frees the earliest bank.
	c.busBusyUntil = 200 * sim.Nanosecond
	wantAt := c.busBusyUntil - tm.TCL
	for i, p := range []*dramPacket{a, b} {
		if _, _, _, at := c.issueAt(p); at != wantAt {
			t.Fatalf("burst %d: issueAt = %s, want bus-clamped %s", i, at, wantAt)
		}
	}
	if got := c.chooseNext(&c.readQueue); got != b {
		t.Fatalf("busy bus: chooseNext = burst %d, want 1 (earliest bank among equal costs)", got.seq)
	}
}

// The mispick the old hit scan made: it took the first queued row hit even
// when that hit's column was blocked past the point the data bus frees,
// stalling the bus while a seamless hit sat queued right behind it. The
// fixed scan prefers the first *seamless* hit (gem5's minColAt rule) and
// only falls back to a stalling hit when no seamless one exists.
func TestChooseNextPrefersSeamlessHit(t *testing.T) {
	h := newHarness(t, nil)
	c := h.c
	tm := &c.tim

	c.busBusyUntil = 100 * sim.Nanosecond
	rk := c.ranks[0]
	const stall, seamless = 0, 1
	c.activateBank(0, rk, stall, 0, 3)
	rk.colAllowedAt[stall] = c.busBusyUntil + 50*sim.Nanosecond // hit, but stalls the bus
	c.activateBank(0, rk, seamless, 0, 7)
	rk.colAllowedAt[seamless] = c.busBusyUntil - tm.TCL // ready the moment the bus frees

	first, second := h.enqueueRead(t, 0, stall, 3), h.enqueueRead(t, 0, seamless, 7)
	if got := c.chooseNext(&c.readQueue); got != second {
		t.Fatalf("chooseNext = burst %d, want 1 (seamless hit beats stalling hit queued first)", got.seq)
	}

	// Make the first hit seamless too: queue order resumes (FCFS among
	// seamless hits).
	rk.colAllowedAt[stall] = c.busBusyUntil - tm.TCL
	if got := c.chooseNext(&c.readQueue); got != first {
		t.Fatalf("chooseNext = burst %d, want 0 (first seamless hit in queue order)", got.seq)
	}

	// No seamless hit at all: the first ready hit still beats misses.
	rk.colAllowedAt[stall] = c.busBusyUntil + 50*sim.Nanosecond
	rk.colAllowedAt[seamless] = c.busBusyUntil + 80*sim.Nanosecond
	if got := c.chooseNext(&c.readQueue); got != first {
		t.Fatalf("chooseNext = burst %d, want 0 (first non-seamless hit as fallback)", got.seq)
	}
}

// tracedHarness is newHarness on the given device with a command trace
// attached.
func tracedHarness(t *testing.T, spec dram.Spec) (*harness, *power.CommandTrace) {
	trace := &power.CommandTrace{}
	h := newHarness(t, func(c *Config) {
		c.Device = spec
		c.Probes = obs.NewHub()
		c.Probes.Attach(obs.CommandFunc(trace.Record))
	})
	return h, trace
}

// The estimate is the charge: the PRE, ACT and column ticks doDRAMAccess
// stamps into the command stream are the ones issueAt returned just before,
// on flat and bank-grouped devices, for every bank state, direction and bus
// state.
func TestEstimateIssueMatchesAccessCharge(t *testing.T) {
	const bank, neighbour, row = 2, 6, 9 // 6 shares bank 2's group on DDR4 (4 groups)
	for _, spec := range []dram.Spec{dram.DDR3_1600_x64(), dram.DDR4_3200_x64()} {
		for _, state := range []string{"hit", "closed", "conflict"} {
			for _, isRead := range []bool{true, false} {
				for _, busBusy := range []sim.Tick{0, 150 * sim.Nanosecond} {
					name := fmt.Sprintf("%s/%s/read=%v/bus=%s", spec.Name, state, isRead, busBusy)
					t.Run(name, func(t *testing.T) {
						h, trace := tracedHarness(t, spec)
						c, rk := h.c, h.c.ranks[0]
						// A recent activate next door arms tRRD (tRRD_L when
						// grouped) and the activation window.
						c.activateBank(0, rk, neighbour, 0, 1)
						switch state {
						case "hit":
							c.activateBank(0, rk, bank, 10*sim.Nanosecond, row)
						case "conflict":
							c.activateBank(0, rk, bank, 10*sim.Nanosecond, row+1)
						}
						c.busBusyUntil = busBusy
						trace.Reset()

						p := mkRead(0, bank, row, 0)
						p.isRead = isRead
						preAt, actAt, _, cmdAt := c.issueAt(p)
						c.doDRAMAccess(p)

						col := power.CmdWR
						if isRead {
							col = power.CmdRD
						}
						want := []power.Command{{Kind: col, Bank: bank, At: cmdAt}}
						if state != "hit" {
							want = append([]power.Command{{Kind: power.CmdACT, Bank: bank, At: actAt}}, want...)
						}
						if state == "conflict" {
							want = append([]power.Command{{Kind: power.CmdPRE, Bank: bank, At: preAt}}, want...)
						}
						if got := trace.Commands(); !reflect.DeepEqual(got, want) {
							t.Fatalf("commands %v, issueAt predicted %v", got, want)
						}
						if want := cmdAt + c.tim.TCL + c.tim.TBURST; p.readyTime != want {
							t.Fatalf("data ends at %s, want %s", p.readyTime, want)
						}
					})
				}
			}
		}
	}
}

// A row left logically open across a refresh blackout is not a ready hit:
// its activate is booked for after tRFC, so the old scan — which keyed on
// openRow alone — burned the whole blackout on it while a genuinely ready
// request in another rank sat idle. The fixed scan gates hits on
// refreshUntil and falls through to the cost function, which picks the
// ready miss.
func TestChooseNextSkipsHitInRefreshingBank(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.Device = dram.DDR3_1600_x64_2R() })
	c := h.c
	now := h.k.Now()

	// The state an access issued during a blackout leaves behind: the row is
	// logically open, its activate booked for when the refresh ends.
	rk := c.ranks[0]
	rk.refreshUntil[0] = now + 100*sim.Nanosecond
	rk.actAllowedAt[0] = rk.refreshUntil[0]
	c.activateBank(0, rk, 0, rk.refreshUntil[0], 5)

	hit := h.enqueueRead(t, 0, 0, 5)  // row hit, but the bank is mid-refresh
	miss := h.enqueueRead(t, 1, 1, 8) // closed bank in the other rank, ready immediately

	if got := c.chooseNext(&c.readQueue); got != miss {
		t.Fatalf("mid-refresh: chooseNext = burst %d, want 1 (ready miss beats blacked-out hit)", got.seq)
	}

	// Blackout over: the hit is genuinely ready again and must be preferred
	// — the gate only suppresses hits during the blackout.
	rk.refreshUntil[0] = now
	rk.colAllowedAt[0] = now
	if got := c.chooseNext(&c.readQueue); got != hit {
		t.Fatalf("after refresh: chooseNext = burst %d, want 0 (row hit preferred)", got.seq)
	}
}

// End-to-end flavour of the same bug: a refresh episode must stamp the
// blackout on exactly the banks of its range [lo,hi) so the scan sees it —
// the whole rank (all-bank), the next bank (per-bank), the next bank of every
// group (DDR5 same-bank) — rotate the range, and leave every other bank
// alone.
func TestRefreshStampsBlackout(t *testing.T) {
	perBank := dram.DDR3_1600_x64()
	perBank.Refresh = dram.RefPerBank
	ddr5 := dram.DDR5_4800_x64()
	for _, tc := range []struct {
		spec  dram.Spec
		width int // banks per refresh command
		cmd   power.CommandKind
	}{
		{dram.DDR3_1600_x64(), dram.DDR3_1600_x64().Org.BanksPerRank, power.CmdREF},
		{perBank, 1, power.CmdREF},
		{ddr5, ddr5.Org.BankGroups, power.CmdREFSB},
	} {
		t.Run(tc.spec.Name+"/"+tc.spec.Refresh.String(), func(t *testing.T) {
			h, trace := tracedHarness(t, tc.spec)
			c, rk := h.c, h.c.ranks[0]
			// An open row in the first range makes the episode precharge
			// before it may start.
			c.activateBank(0, rk, 0, 0, 5)
			sets := rk.numBanks() / tc.width
			for round := 0; round < 2; round++ {
				s := round % sets
				lo, hi := s*tc.width, (s+1)*tc.width
				due := c.refreshDue[0]
				h.k.RunUntil(due - 1)
				untilBefore := append([]sim.Tick(nil), rk.refreshUntil...)
				actBefore := append([]sim.Tick(nil), rk.actAllowedAt...)
				trace.Reset()
				h.k.RunUntil(due)

				cmds := trace.Commands()
				ref := cmds[len(cmds)-1]
				if ref.Kind != tc.cmd || ref.Bank != s {
					t.Fatalf("round %d: last command %v, want %v of set %d", round, ref, tc.cmd, s)
				}
				wantStart := due
				if round == 0 {
					wantStart += c.tim.TRP // bank 0's precharge
				}
				if ref.At != wantStart {
					t.Fatalf("round %d: refresh starts at %s, want %s", round, ref.At, wantStart)
				}
				done := ref.At + tc.spec.RefreshMode().Blackout
				for bi := 0; bi < rk.numBanks(); bi++ {
					switch {
					case bi >= lo && bi < hi:
						if rk.refreshUntil[bi] != done || rk.actAllowedAt[bi] != done || rk.openRow[bi] != rowClosed {
							t.Fatalf("round %d bank %d: refreshUntil %s actAllowedAt %s openRow %d, want blackout to %s on a closed bank",
								round, bi, rk.refreshUntil[bi], rk.actAllowedAt[bi], rk.openRow[bi], done)
						}
					case rk.refreshUntil[bi] != untilBefore[bi] || rk.actAllowedAt[bi] != actBefore[bi]:
						t.Fatalf("round %d bank %d outside [%d,%d) moved", round, bi, lo, hi)
					}
				}
			}
		})
	}
}

// randomizeTiming scatters every tick the arbitration reads around now:
// open rows (through activateBank, the way rows open), per-bank allowed-at
// times, refresh blackouts — over closed banks and over logically open rows
// alike — and the rank and bus state behind issueAt.
func randomizeTiming(c *Controller, rng *rand.Rand, rows int) {
	now := c.k.Now()
	// near draws a tick within 60 ns either side of now, on a coarse grid so
	// that exact ties between banks are common.
	near := func() sim.Tick { return now + sim.Tick(rng.Intn(25)-12)*5*sim.Nanosecond }
	for ri, rk := range c.ranks {
		for bi := 0; bi < rk.numBanks(); bi++ {
			if rng.Intn(3) > 0 {
				c.activateBank(ri, rk, bi, near(), int64(rng.Intn(rows)))
			}
			rk.actAllowedAt[bi], rk.preAllowedAt[bi], rk.colAllowedAt[bi] = near(), near(), near()
			if rng.Intn(4) == 0 {
				rk.refreshUntil[bi] = now + sim.Tick(1+rng.Intn(20))*5*sim.Nanosecond
			}
		}
		rk.lastActAt, rk.rdAllowedAt, rk.wrAllowedAt, rk.colAnyAt = near(), near(), near(), near()
		for g := range rk.actGroupAt {
			rk.actGroupAt[g], rk.colGroupAt[g] = near(), near()
		}
	}
	c.busBusyUntil = near()
}

// linearScanSpecs are the devices the scheduler is held to the linear scan
// on: flat and bank-grouped, one and two ranks, all-bank and per-bank
// refresh, and a rank as wide as a bank mask.
func linearScanSpecs() []dram.Spec {
	perBank := dram.LPDDR5_6400_x32()
	perBank.Refresh = dram.RefPerBank
	wide := dram.DDR4_3200_x64()
	wide.Org.BanksPerRank = maxBanksPerRank
	return []dram.Spec{
		dram.DDR3_1600_x64(), dram.DDR3_1600_x64_2R(), dram.DDR4_3200_x64(),
		dram.DDR5_4800_x64(), perBank, wide,
	}
}

// linearScanRows is how many rows a round's bursts spread over: few, so that
// hits, conflicts and same-bank runs all occur.
const linearScanRows = 3

// chooseNextRound builds a controller on spec under the given page and
// scheduling policy, scatters its timing state from rng, queues bursts at
// coords (rank, bank and row folded into the device) in one direction and
// then services the whole queue, comparing product and oracle at every
// decision; servicing through doDRAMAccess moves the state on the way the
// scheduler really does. At every decision issueAt must also answer, for
// every queued burst, what the single-level rules it was split from answer.
// It returns how many decisions it compared.
func chooseNextRound(t *testing.T, rng *rand.Rand, spec dram.Spec, page PagePolicy, fcfs, isRead bool, coords []dram.Coord) int {
	t.Helper()
	h := newHarness(t, func(c *Config) {
		c.Device = spec
		c.Page = page
		if fcfs {
			c.Scheduling = FCFS
		}
	})
	c := h.c
	h.k.RunUntil(sim.Microsecond) // before the first refresh; leaves room below now
	randomizeTiming(c, rng, linearScanRows)
	q := &c.writeQueue
	if isRead {
		q = &c.readQueue
	}
	for _, co := range coords {
		dp := c.newDP()
		*dp = dramPacket{
			isRead: isRead,
			coord: dram.Coord{Rank: co.Rank % len(c.ranks), Bank: co.Bank % spec.Org.BanksPerRank,
				Row: co.Row % linearScanRows},
			entryTime: c.k.Now(),
		}
		q.push(dp)
	}
	decisions := 0
	for q.n > 0 {
		checkQueueIndex(t, c)
		all := q.bursts()
		checkIssueAt(t, c, all)
		want := all[c.chooseNextOracle(all)]
		got := c.chooseNext(q)
		if got != want {
			t.Fatalf("%s, %s, read=%v, %d queued: product picks burst %d %+v, linear scan picks burst %d %+v",
				spec.Name, page, isRead, q.n, got.seq, got.coord, want.seq, want.coord)
		}
		decisions++
		q.remove(got)
		c.doDRAMAccess(got)
		c.freeDP(got)
	}
	checkQueueIndex(t, c)
	return decisions
}

// The bank-indexed chooseNext must pick the burst the linear scan picks, for
// every queue content and every bank, rank and bus state: each round is a
// random device, policy, direction and queue of 2 to 41 bursts.
func TestChooseNextMatchesLinearScan(t *testing.T) {
	specs := linearScanSpecs()
	rng := rand.New(rand.NewSource(16))
	decisions := 0
	for round := 0; round < 1500; round++ {
		spec := specs[rng.Intn(len(specs))]
		fcfs, isRead, page := rng.Intn(8) == 0, rng.Intn(2) == 0, PagePolicy(rng.Intn(4))
		coords := make([]dram.Coord, 2+rng.Intn(40))
		for i := range coords {
			coords[i] = dram.Coord{Rank: rng.Intn(spec.Org.RanksPerChannel), Bank: rng.Intn(spec.Org.BanksPerRank),
				Row: uint64(rng.Intn(linearScanRows))}
		}
		decisions += chooseNextRound(t, rng, spec, page, fcfs, isRead, coords)
	}
	if decisions < 10000 {
		t.Fatalf("only %d decisions compared, want at least 10000", decisions)
	}
}

// FuzzChooseNextMatchesLinearScan is one round of the same comparison under
// the native fuzzer, which picks the timing seed, the device, the page
// policy (low two bits; the next three zero select FCFS, one time in eight as
// in the test), the direction and the queue: three bytes a burst (rank,
// bank, row), at most 64 bursts. Its seed corpus runs as part of go test.
func FuzzChooseNextMatchesLinearScan(f *testing.F) {
	specs := linearScanSpecs()
	for i := 0; i < len(specs); i++ {
		queue := make([]byte, 3*(2+7*i))
		rand.New(rand.NewSource(int64(i))).Read(queue)
		f.Add(int64(i), uint8(i), uint8(i), i%2 == 0, queue)
	}
	f.Fuzz(func(t *testing.T, seed int64, spec, page uint8, isRead bool, queue []byte) {
		var coords []dram.Coord
		for ; len(queue) >= 3 && len(coords) < 64; queue = queue[3:] {
			coords = append(coords, dram.Coord{Rank: int(queue[0]), Bank: int(queue[1]), Row: uint64(queue[2])})
		}
		chooseNextRound(t, rand.New(rand.NewSource(seed)), specs[int(spec)%len(specs)],
			PagePolicy(page%4), page>>2&7 == 0, isRead, coords)
	})
}
