package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
)

// Regression tests for the FR-FCFS cost function and row-hit scan. Both
// construct the exact mispick the old code made: the cost function ignored
// the shared data bus, and chooseNext treated a row opened during a refresh
// blackout as a ready hit.

// mkRead builds a read burst to (rank, bank, row) for white-box scheduling
// tests; only the fields chooseNext/issueAt read are populated.
func mkRead(rank, bank int, row uint64, entry sim.Tick) *dramPacket {
	return &dramPacket{
		isRead:    true,
		coord:     dram.Coord{Rank: rank, Bank: bank, Row: row},
		entryTime: entry,
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
	a := mkRead(0, 0, 3, 0)
	b := mkRead(0, 1, 7, 1*sim.Nanosecond)
	c.ranks[0].actAllowedAt[0] = 10 * sim.Nanosecond
	c.ranks[0].actAllowedAt[1] = 5 * sim.Nanosecond
	q := []*dramPacket{a, b}

	// Idle bus: bank state decides; the sooner bank wins.
	if got := c.chooseNext(q); got != 1 {
		t.Fatalf("idle bus: chooseNext = %d, want 1 (sooner bank wins)", got)
	}

	// Bus saturated well past both bank-ready ticks: the estimates must
	// collapse to the bus tick (the cost doDRAMAccess will actually charge)
	// while the choice still frees the earliest bank.
	c.busBusyUntil = 200 * sim.Nanosecond
	wantAt := c.busBusyUntil - tm.TCL
	for i, p := range q {
		if _, _, _, at := c.issueAt(p); at != wantAt {
			t.Fatalf("q[%d]: issueAt = %s, want bus-clamped %s", i, at, wantAt)
		}
	}
	if got := c.chooseNext(q); got != 1 {
		t.Fatalf("busy bus: chooseNext = %d, want 1 (earliest bank among equal costs)", got)
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
	rk.openRow[stall] = 3
	rk.colAllowedAt[stall] = c.busBusyUntil + 50*sim.Nanosecond // hit, but stalls the bus
	rk.openRow[seamless] = 7
	rk.colAllowedAt[seamless] = c.busBusyUntil - tm.TCL // ready the moment the bus frees

	q := []*dramPacket{mkRead(0, 0, 3, 0), mkRead(0, 1, 7, 1)}
	if got := c.chooseNext(q); got != 1 {
		t.Fatalf("chooseNext = %d, want 1 (seamless hit beats stalling hit queued first)", got)
	}

	// Make the first hit seamless too: queue order resumes (FCFS among
	// seamless hits).
	rk.colAllowedAt[stall] = c.busBusyUntil - tm.TCL
	if got := c.chooseNext(q); got != 0 {
		t.Fatalf("chooseNext = %d, want 0 (first seamless hit in queue order)", got)
	}

	// No seamless hit at all: the first ready hit still beats misses.
	rk.colAllowedAt[stall] = c.busBusyUntil + 50*sim.Nanosecond
	rk.colAllowedAt[seamless] = c.busBusyUntil + 80*sim.Nanosecond
	if got := c.chooseNext(q); got != 0 {
		t.Fatalf("chooseNext = %d, want 0 (first non-seamless hit as fallback)", got)
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
// request in another bank sat idle. The fixed scan gates hits on
// refreshUntil and falls through to the cost function, which picks the
// ready miss.
func TestChooseNextSkipsHitInRefreshingBank(t *testing.T) {
	h := newHarness(t, nil)
	c := h.c
	now := h.k.Now()

	rk := c.ranks[0]
	rk.openRow[0] = 5
	rk.refreshUntil[0] = now + 100*sim.Nanosecond
	rk.actAllowedAt[0] = rk.refreshUntil[0]
	rk.colAllowedAt[0] = rk.refreshUntil[0] + c.tim.TRCD

	hit := mkRead(0, 0, 5, 0)  // row hit, but the bank is mid-refresh
	miss := mkRead(0, 1, 8, 1) // closed bank, ready immediately
	q := []*dramPacket{hit, miss}

	if got := c.chooseNext(q); got != 1 {
		t.Fatalf("mid-refresh: chooseNext = %d, want 1 (ready miss beats blacked-out hit)", got)
	}

	// Blackout over: the hit is genuinely ready again and must be preferred
	// — the gate only suppresses hits during the blackout.
	rk.refreshUntil[0] = now
	rk.colAllowedAt[0] = now
	if got := c.chooseNext(q); got != 0 {
		t.Fatalf("after refresh: chooseNext = %d, want 0 (row hit preferred)", got)
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
