package power

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

func ddr3() dram.Spec { return dram.DDR3_1600_x64() }

func TestCheckTimingCleanTrace(t *testing.T) {
	spec := ddr3()
	tm := spec.Timing
	act := sim.Tick(0)
	rd := act + tm.TRCD
	pre := act + tm.TRAS
	act2 := pre + tm.TRP
	cmds := []Command{
		{Kind: CmdACT, Bank: 0, At: act},
		{Kind: CmdRD, Bank: 0, At: rd},
		{Kind: CmdPRE, Bank: 0, At: pre},
		{Kind: CmdACT, Bank: 0, At: act2},
	}
	if v := CheckTiming(spec, cmds); len(v) != 0 {
		t.Fatalf("clean trace flagged: %v", v)
	}
}

func TestCheckTimingCatchesViolations(t *testing.T) {
	spec := ddr3()
	tm := spec.Timing
	cases := []struct {
		rule string
		cmds []Command
	}{
		{"tRCD", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdRD, Bank: 0, At: tm.TRCD - 1},
		}},
		{"tRAS", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdPRE, Bank: 0, At: tm.TRAS - 1},
		}},
		{"tRP", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdPRE, Bank: 0, At: tm.TRAS},
			{Kind: CmdACT, Bank: 0, At: tm.TRAS + tm.TRP - 1},
		}},
		{"tRRD", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 1, At: tm.TRRD - 1},
		}},
		{"tXAW", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 1, At: tm.TRRD},
			{Kind: CmdACT, Bank: 2, At: 2 * tm.TRRD},
			{Kind: CmdACT, Bank: 3, At: 3 * tm.TRRD},
			{Kind: CmdACT, Bank: 4, At: tm.TXAW - 1},
		}},
		{"ACT-on-open-bank", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 0, At: tm.TRRD},
		}},
		{"column-on-closed-bank", []Command{
			{Kind: CmdRD, Bank: 0, At: 0},
		}},
		{"PRE-on-closed-bank", []Command{
			{Kind: CmdPRE, Bank: 0, At: 0},
		}},
		{"data-bus-overlap", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 1, At: tm.TRRD},
			{Kind: CmdRD, Bank: 0, At: tm.TRCD},
			{Kind: CmdRD, Bank: 1, At: tm.TRCD + tm.TBURST - 1},
		}},
		{"tWTR", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdWR, Bank: 0, At: tm.TRCD},
			{Kind: CmdRD, Bank: 0, At: tm.TRCD + tm.TCL + tm.TBURST + tm.TWTR - 1},
		}},
		{"coordinate-range", []Command{
			{Kind: CmdACT, Bank: 99, At: 0},
		}},
		{"REF-on-open-bank", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdREF, Bank: 0, At: tm.TRAS},
		}},
	}
	for _, c := range cases {
		vs := CheckTiming(spec, c.cmds)
		found := false
		for _, v := range vs {
			if v.Rule == c.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s violation not detected (got %v)", c.rule, vs)
		}
	}
}

func TestCheckTimingCleanLowPowerTrace(t *testing.T) {
	spec := ddr3()
	tm := spec.Timing
	pde := sim.Tick(0)
	pdx := pde + tm.TCKE
	act := pdx + tm.TXP
	rd := act + tm.TRCD
	pre := act + tm.TRAS
	sre := pre + tm.TRP
	srx := sre + tm.TCKESR
	act2 := srx + tm.TXS
	rd2 := srx + tm.TXSDLL
	if rd2 < act2+tm.TRCD {
		rd2 = act2 + tm.TRCD
	}
	cmds := []Command{
		{Kind: CmdPDE, Bank: PDPrecharge, At: pde},
		{Kind: CmdPDX, At: pdx},
		{Kind: CmdACT, Bank: 0, At: act},
		{Kind: CmdRD, Bank: 0, At: rd},
		{Kind: CmdPRE, Bank: 0, At: pre},
		{Kind: CmdSRE, At: sre},
		{Kind: CmdSRX, At: srx},
		{Kind: CmdACT, Bank: 0, At: act2},
		{Kind: CmdRD, Bank: 0, At: rd2},
	}
	if v := CheckTiming(spec, cmds); len(v) != 0 {
		t.Fatalf("clean low-power trace flagged: %v", v)
	}
}

func TestCheckTimingCatchesCKEViolations(t *testing.T) {
	spec := ddr3()
	tm := spec.Timing
	cases := []struct {
		rule string
		cmds []Command
	}{
		{"tCKE", []Command{
			{Kind: CmdPDE, Bank: PDPrecharge, At: 0},
			{Kind: CmdPDX, At: tm.TCKE - 1},
		}},
		{"tCKESR", []Command{
			{Kind: CmdSRE, At: 0},
			{Kind: CmdSRX, At: tm.TCKESR - 1},
		}},
		{"tXP", []Command{
			{Kind: CmdPDE, Bank: PDPrecharge, At: 0},
			{Kind: CmdPDX, At: tm.TCKE},
			{Kind: CmdACT, Bank: 0, At: tm.TCKE + tm.TXP - 1},
		}},
		{"tXS", []Command{
			{Kind: CmdSRE, At: 0},
			{Kind: CmdSRX, At: tm.TCKESR},
			{Kind: CmdACT, Bank: 0, At: tm.TCKESR + tm.TXS - 1},
		}},
		{"tXSDLL", []Command{
			// The ACT clears tXS; the read needs the DLL re-locked too.
			{Kind: CmdSRE, At: 0},
			{Kind: CmdSRX, At: tm.TCKESR},
			{Kind: CmdACT, Bank: 0, At: tm.TCKESR + tm.TXS},
			{Kind: CmdRD, Bank: 0, At: tm.TCKESR + tm.TXS + tm.TRCD},
		}},
		{"command-while-CKE-low", []Command{
			{Kind: CmdPDE, Bank: PDPrecharge, At: 0},
			{Kind: CmdACT, Bank: 0, At: tm.TCKE},
		}},
		{"CKE-already-low", []Command{
			{Kind: CmdPDE, Bank: PDPrecharge, At: 0},
			{Kind: CmdSRE, At: tm.TCKE},
		}},
		{"PDX-without-PDE", []Command{
			{Kind: CmdPDX, At: 0},
		}},
		{"SRX-without-SRE", []Command{
			{Kind: CmdSRX, At: 0},
		}},
		{"SRE-on-open-bank", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdSRE, At: tm.TRAS},
		}},
		{"PDE-flavor", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdPDE, Bank: PDPrecharge, At: tm.TRAS},
		}},
		{"refresh-interval", []Command{
			{Kind: CmdREF, Bank: 0, At: 0},
			{Kind: CmdREF, Bank: 0, At: 9*tm.TREFI + 1},
		}},
	}
	for _, c := range cases {
		vs := CheckTiming(spec, c.cmds)
		found := false
		for _, v := range vs {
			if v.Rule == c.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s violation not detected (got %v)", c.rule, vs)
		}
	}
}

// hasRule reports whether some violation in vs carries the rule name.
func hasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// TestCheckTimingCatchesStandardRules exercises the device-specific referee
// rules the multi-standard checker added: bank-group activate and column
// spacing (DDR5), same-bank refresh legality and blackout (DDR5), all-bank
// precharge time (LPDDR5), and the device-derived refresh-interval budget.
// Each stream is legal under every generic DDR3-era rule and violates exactly
// the standard-specific one under test.
func TestCheckTimingCatchesStandardRules(t *testing.T) {
	ddr5 := dram.DDR5_4800_x64()
	lp5 := dram.LPDDR5_6400_x32()
	d5 := ddr5.Timing
	l5 := lp5.Timing
	// DDR5-4800-x64: 32 banks in 8 groups, so banks 0 and 8 share group 0
	// while banks 0 and 1 do not (group = bank mod groups).
	sameBank := 8
	// LPDDR5 all-bank refresh budget test values.
	lpPre := l5.TRRDL + l5.TRAS // wait for both banks' tRAS
	// DDR5 same-bank cadence: tREFI spread over the banks-per-group slots.
	d5Budget := 9 * (d5.TREFI / sim.Tick(ddr5.Topology().BanksPerGroup))
	cases := []struct {
		rule string
		dev  dram.Spec
		cmds []Command
	}{
		{"tRRD_L", ddr5, []Command{
			// Spacing clears tRRD_S but not tRRD_L.
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: sameBank, At: d5.TRRDL - 1},
		}},
		{"tCCD_L", ddr5, []Command{
			// Reads into one group spaced past tCCD_S (and tBURST) but
			// inside tCCD_L.
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: sameBank, At: d5.TRRDL},
			{Kind: CmdRD, Bank: 0, At: d5.TRRDL + d5.TRCD},
			{Kind: CmdRD, Bank: sameBank, At: d5.TRRDL + d5.TRCD + d5.TCCDL - 1},
		}},
		{"tCCD_S", ddr5, []Command{
			// Reads into different groups one tick inside tCCD_S.
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 1, At: d5.TRRD},
			{Kind: CmdRD, Bank: 0, At: d5.TRRDL + d5.TRCD},
			{Kind: CmdRD, Bank: 1, At: d5.TRRDL + d5.TRCD + d5.TCCDS - 1},
		}},
		{"tRFCsb", ddr5, []Command{
			// REFSB of in-group index 0 blacks out flat banks 0..7; an ACT
			// to bank 3 inside tRFCsb is illegal.
			{Kind: CmdREFSB, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 3, At: ddr5.RefreshMode().Blackout - 1},
		}},
		{"REFSB-on-open-bank", ddr5, []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdREFSB, Bank: 0, At: d5.TRAS},
		}},
		{"coordinate-range", ddr5, []Command{
			// The REFSB bank field is the in-group index s < banks/group.
			{Kind: CmdREFSB, Bank: ddr5.Topology().BanksPerGroup, At: 0},
		}},
		{"REFSB-without-bank-groups", ddr3(), []Command{
			{Kind: CmdREFSB, Bank: 0, At: 0},
		}},
		{"refresh-interval", ddr5, []Command{
			// Same-bank refresh points must come every tREFI/banks-per-group
			// on average; nine postponements is the most JEDEC allows.
			{Kind: CmdREFSB, Bank: 0, At: 0},
			{Kind: CmdREFSB, Bank: 0, At: d5Budget + 1},
		}},
		{"tRPab", lp5, []Command{
			// A same-tick precharge-all batch followed by REF must respect
			// the longer all-bank tRPab, not just tRP.
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 1, At: l5.TRRDL},
			{Kind: CmdPRE, Bank: 0, At: lpPre},
			{Kind: CmdPRE, Bank: 1, At: lpPre},
			{Kind: CmdREF, Bank: 0, At: lpPre + l5.TRPAB - 1},
		}},
	}
	for _, c := range cases {
		if vs := CheckTiming(c.dev, c.cmds); !hasRule(vs, c.rule) {
			t.Errorf("%s violation not detected (got %v)", c.rule, vs)
		}
	}
}

// TestCheckTimingStandardRulesCleanAtBound re-runs the group-rule streams
// with the spacing widened to exactly the constraint: the boundary must be
// legal (the rules are strict-less-than).
func TestCheckTimingStandardRulesCleanAtBound(t *testing.T) {
	ddr5 := dram.DDR5_4800_x64()
	d5 := ddr5.Timing
	cases := []struct {
		name string
		cmds []Command
	}{
		{"tRRD_L", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 8, At: d5.TRRDL},
		}},
		{"tCCD_L", []Command{
			{Kind: CmdACT, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 8, At: d5.TRRDL},
			{Kind: CmdRD, Bank: 0, At: d5.TRRDL + d5.TRCD},
			{Kind: CmdRD, Bank: 8, At: d5.TRRDL + d5.TRCD + d5.TCCDL},
		}},
		{"tRFCsb", []Command{
			{Kind: CmdREFSB, Bank: 0, At: 0},
			{Kind: CmdACT, Bank: 3, At: ddr5.RefreshMode().Blackout},
		}},
	}
	for _, c := range cases {
		if vs := CheckTiming(ddr5, c.cmds); len(vs) != 0 {
			t.Errorf("%s: boundary-legal stream flagged: %v", c.name, vs)
		}
	}
}

// TestCheckTimingPerBankRefreshIgnoresDemandBatch: on a device refreshing
// per bank, two demand precharges sharing a tick are not a precharge-all, so
// a REF of a third, long-closed bank right after them owes them no tRPab
// (core's protocol property found this with LPDDR5 under a per-bank
// override: the rule used to fire on any REF).
func TestCheckTimingPerBankRefreshIgnoresDemandBatch(t *testing.T) {
	lp5 := dram.LPDDR5_6400_x32()
	lp5.Refresh = dram.RefPerBank
	gap := lp5.ActToAct(true)
	pre := gap + lp5.Timing.TRAS
	cmds := []Command{
		{Kind: CmdACT, Bank: 0, At: 0},
		{Kind: CmdACT, Bank: 1, At: gap},
		{Kind: CmdPRE, Bank: 0, At: pre},
		{Kind: CmdPRE, Bank: 1, At: pre},
		{Kind: CmdREF, Bank: 2, At: pre + 1},
	}
	if vs := CheckTiming(lp5, cmds); len(vs) != 0 {
		t.Fatalf("per-bank REF after a demand PRE batch flagged: %v", vs)
	}
}

// TestCheckTimingAllBankRefreshCountsDemandPRE pins the conservative side of
// the same reconstruction on an all-bank device: the trace does not say which
// PREs a refresh issued itself, so a demand PRE sharing the tick of the
// refresh's single own PRE reads as a precharge-all and the REF owes tRPab;
// a lone PRE owes only tRP. core's all-bank refresh counts just its own
// precharges, so that coincidence would be flagged (ROADMAP 3(a)); no seed
// has produced it.
func TestCheckTimingAllBankRefreshCountsDemandPRE(t *testing.T) {
	lp5 := dram.LPDDR5_6400_x32()
	l5 := lp5.Timing
	gap := lp5.ActToAct(true)
	pre := gap + l5.TRAS
	lone := []Command{
		{Kind: CmdACT, Bank: 0, At: 0},
		{Kind: CmdPRE, Bank: 0, At: pre},
		{Kind: CmdREF, Bank: 0, At: pre + l5.TRP},
	}
	if vs := CheckTiming(lp5, lone); len(vs) != 0 {
		t.Fatalf("all-bank REF tRP after its lone PRE flagged: %v", vs)
	}
	shared := []Command{
		{Kind: CmdACT, Bank: 0, At: 0},
		{Kind: CmdACT, Bank: 1, At: gap},
		{Kind: CmdPRE, Bank: 1, At: pre}, // demand
		{Kind: CmdPRE, Bank: 0, At: pre}, // the refresh's own
		{Kind: CmdREF, Bank: 0, At: pre + l5.TRP},
	}
	if vs := CheckTiming(lp5, shared); !hasRule(vs, "tRPab") {
		t.Fatalf("all-bank REF tRP after a same-tick PRE pair not refereed as a batch: %v", vs)
	}
}

// TestCheckTimingActivationLimitAboveEight is the regression test for the
// old fixed 8-entry activation window: with a device whose rolling limit is
// nine, the checker must referee tXAW over nine activates — the old cap
// would have dropped the oldest ACT and measured the window from the second
// one, flagging a legal stream.
func TestCheckTimingActivationLimitAboveEight(t *testing.T) {
	spec := ddr3()
	spec.Org.BanksPerRank = 16
	spec.Org.ActivationLimit = 9
	spec.Timing.TXAW = 10 * spec.Timing.TRRD
	tm := spec.Timing
	var ramp []Command
	for i := 0; i < 9; i++ {
		ramp = append(ramp, Command{Kind: CmdACT, Bank: i, At: sim.Tick(i) * tm.TRRD})
	}
	bad := append(append([]Command{}, ramp...),
		Command{Kind: CmdACT, Bank: 9, At: tm.TXAW - 1})
	if vs := CheckTiming(spec, bad); !hasRule(vs, "tXAW") {
		t.Errorf("tenth ACT inside the nine-activate window not flagged (got %v)", vs)
	}
	good := append(append([]Command{}, ramp...),
		Command{Kind: CmdACT, Bank: 9, At: tm.TXAW})
	if vs := CheckTiming(spec, good); len(vs) != 0 {
		t.Errorf("tenth ACT exactly one tXAW after the first flagged: %v", vs)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "tRCD", Cmd: Command{Kind: CmdRD, Bank: 2, At: 100}, Deficit: 50}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}
