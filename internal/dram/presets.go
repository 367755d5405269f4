package dram

import "repro/internal/sim"

// The presets below reproduce the memory interfaces the paper evaluates.
// DDR3/LPDDR3/WideIO use the exact Table IV values (ns interpreted as
// printed, tREFI in microseconds as customary); the validation DDR3-1333
// configuration matches §III's "2 GBit, 8x8, 666 MHz" device. The remaining
// presets (DDR4, GDDR5, LPDDR2, HMC vault) demonstrate the model's
// flexibility claim: a new interface is only a parameter set.

const (
	ns = sim.Nanosecond
	us = sim.Microsecond
	ps = sim.Picosecond
)

// DDR3_1600_x64 is the paper's Table IV DDR3 channel: one 64-bit channel at
// 12.8 GB/s peak.
func DDR3_1600_x64() Spec {
	return Spec{
		Name:   "DDR3-1600-x64",
		Family: "DDR3",
		Org: Organization{
			BusWidthBits:    64,
			BurstLength:     8,
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			RowBufferBytes:  1024,
			RowsPerBank:     32768,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    1250 * ps,
			TRCD:   13750 * ps,
			TCL:    13750 * ps,
			TRP:    13750 * ps,
			TRAS:   35 * ns,
			TBURST: 5 * ns,
			TRFC:   300 * ns,
			TREFI:  7800 * ns,
			TWTR:   7500 * ps,
			TRTW:   2500 * ps,
			TRRD:   6250 * ps,
			TXAW:   40 * ns,
			TRTP:   7500 * ps,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    310 * ns,
			TCKE:   5 * ns,
			TCKESR: 6250 * ps,
			TXSDLL: 640 * ns, // tDLLK = 512 nCK
		},
		Power: ddr3Power(),
	}
}

// LPDDR3_1600_x32 is the paper's Table IV LPDDR3 channel: two such 32-bit
// channels reach 12.8 GB/s.
func LPDDR3_1600_x32() Spec {
	return Spec{
		Name:   "LPDDR3-1600-x32",
		Family: "LPDDR3",
		Org: Organization{
			BusWidthBits:    32,
			BurstLength:     8,
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			RowBufferBytes:  1024,
			RowsPerBank:     32768,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    1250 * ps,
			TRCD:   15 * ns,
			TCL:    15 * ns,
			TRP:    15 * ns,
			TRAS:   42 * ns,
			TBURST: 5 * ns,
			TRFC:   130 * ns,
			TREFI:  15 * us,
			TWTR:   7500 * ps,
			TRTW:   2500 * ps,
			TRRD:   10 * ns,
			TXAW:   50 * ns,
			TRTP:   7500 * ps,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    140 * ns,
			TCKE:   7500 * ps,
			TCKESR: 15 * ns,
			TXSDLL: 140 * ns, // no DLL on LPDDR: equals tXS
		},
		Power: PowerParams{
			VDD:  1.2,
			IDD0: 8, IDD2N: 1.8, IDD2P: 0.8, IDD3N: 8, IDD3P: 1.4,
			IDD4R: 140, IDD4W: 150, IDD5: 28, IDD6: 0.5,
		},
	}
}

// WideIO_200_x128 is the paper's Table IV WideIO channel: four such 128-bit
// SDR channels reach 12.8 GB/s.
func WideIO_200_x128() Spec {
	return Spec{
		Name:   "WideIO-200-x128",
		Family: "WideIO",
		Org: Organization{
			BusWidthBits:    128,
			BurstLength:     4,
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    4,
			RowBufferBytes:  4096,
			RowsPerBank:     16384,
			ActivationLimit: 2,
		},
		Timing: Timing{
			TCK:    5 * ns,
			TRCD:   18 * ns,
			TCL:    18 * ns,
			TRP:    18 * ns,
			TRAS:   42 * ns,
			TBURST: 20 * ns,
			TRFC:   210 * ns,
			TREFI:  35 * us,
			TWTR:   15 * ns,
			TRTW:   5 * ns,
			TRRD:   10 * ns,
			TXAW:   50 * ns,
			TRTP:   15 * ns,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    220 * ns,
			TCKE:   10 * ns,
			TCKESR: 15 * ns,
			TXSDLL: 220 * ns, // SDR interface, no DLL: equals tXS
		},
		Power: PowerParams{
			VDD:  1.2,
			IDD0: 4, IDD2N: 1.5, IDD2P: 0.6, IDD3N: 6, IDD3P: 1.2,
			IDD4R: 45, IDD4W: 50, IDD5: 22, IDD6: 0.4,
		},
	}
}

// DDR3_1333_8x8 matches the validation device of §III: a 2 Gbit, x8 device
// at 666 MHz, eight devices per rank, single rank, single channel. The rank
// row buffer is 8 devices x 1 KByte.
func DDR3_1333_8x8() Spec {
	return Spec{
		Name:   "DDR3-1333-8x8",
		Family: "DDR3",
		Org: Organization{
			BusWidthBits:    64,
			BurstLength:     8,
			DevicesPerRank:  8,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			RowBufferBytes:  8192,
			RowsPerBank:     32768,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    1500 * ps,
			TRCD:   13500 * ps,
			TCL:    13500 * ps,
			TRP:    13500 * ps,
			TRAS:   36 * ns,
			TBURST: 6 * ns,
			TRFC:   160 * ns,
			TREFI:  7800 * ns,
			TWTR:   7500 * ps,
			TRTW:   3 * ns,
			TRRD:   6 * ns,
			TXAW:   30 * ns,
			TRTP:   7500 * ps,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    170 * ns,
			TCKE:   5625 * ps,
			TCKESR: 7125 * ps,
			TXSDLL: 768 * ns, // tDLLK = 512 nCK
		},
		Power: ddr3Power(),
	}
}

// DDR3_1600_x64_2R is the Table IV DDR3 channel with two ranks, exercising
// rank-level parallelism (per the paper, rank-to-rank switching constraints
// are intentionally not modelled, so ranks contribute pure parallelism).
func DDR3_1600_x64_2R() Spec {
	s := DDR3_1600_x64()
	s.Name = "DDR3-1600-x64-2R"
	s.Org.RanksPerChannel = 2
	return s
}

// DDR4_2400_x64 is a post-paper extension point showing the "future memory"
// flexibility claim: only parameters change.
func DDR4_2400_x64() Spec {
	return Spec{
		Name:   "DDR4-2400-x64",
		Family: "DDR4",
		Org: Organization{
			BusWidthBits:    64,
			BurstLength:     8,
			DevicesPerRank:  8,
			RanksPerChannel: 1,
			BanksPerRank:    16,
			RowBufferBytes:  8192,
			RowsPerBank:     32768,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    833 * ps,
			TRCD:   14160 * ps,
			TCL:    14160 * ps,
			TRP:    14160 * ps,
			TRAS:   32 * ns,
			TBURST: 3332 * ps,
			TRFC:   260 * ns,
			TREFI:  7800 * ns,
			TWTR:   7500 * ps,
			TRTW:   2500 * ps,
			TRRD:   4900 * ps,
			TXAW:   21 * ns,
			TRTP:   7500 * ps,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    270 * ns,
			TCKE:   5 * ns,
			TCKESR: 5833 * ps,
			TXSDLL: 640 * ns, // tDLLK = 768 nCK
		},
		Power: PowerParams{
			VDD:  1.2,
			IDD0: 55, IDD2N: 34, IDD2P: 16, IDD3N: 44, IDD3P: 32,
			IDD4R: 150, IDD4W: 125, IDD5: 190, IDD6: 14,
		},
	}
}

// GDDR5_4000_x32 is a graphics-memory extension preset.
func GDDR5_4000_x32() Spec {
	return Spec{
		Name:   "GDDR5-4000-x32",
		Family: "GDDR5",
		Org: Organization{
			BusWidthBits:    32,
			BurstLength:     8,
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    16,
			RowBufferBytes:  2048,
			RowsPerBank:     16384,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    500 * ps,
			TRCD:   12 * ns,
			TCL:    12 * ns,
			TRP:    12 * ns,
			TRAS:   28 * ns,
			TBURST: 2 * ns,
			TRFC:   65 * ns,
			TREFI:  3900 * ns,
			TWTR:   5 * ns,
			TRTW:   2 * ns,
			TRRD:   6 * ns,
			TXAW:   23 * ns,
			TRTP:   2 * ns,
			TWR:    12 * ns,
			TXP:    5 * ns,
			TXS:    75 * ns,
			TCKE:   4 * ns,
			TCKESR: 5 * ns,
			TXSDLL: 128 * ns,
		},
		Power: PowerParams{
			VDD:  1.5,
			IDD0: 70, IDD2N: 32, IDD2P: 18, IDD3N: 55, IDD3P: 38,
			IDD4R: 230, IDD4W: 240, IDD5: 150, IDD6: 20,
		},
	}
}

// LPDDR2_1066_x32 is a mobile extension preset.
func LPDDR2_1066_x32() Spec {
	return Spec{
		Name:   "LPDDR2-1066-x32",
		Family: "LPDDR2",
		Org: Organization{
			BusWidthBits:    32,
			BurstLength:     8,
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			RowBufferBytes:  1024,
			RowsPerBank:     16384,
			ActivationLimit: 0,
		},
		Timing: Timing{
			TCK:    1876 * ps,
			TRCD:   18 * ns,
			TCL:    15 * ns,
			TRP:    18 * ns,
			TRAS:   42 * ns,
			TBURST: 7504 * ps,
			TRFC:   130 * ns,
			TREFI:  3900 * ns,
			TWTR:   7500 * ps,
			TRTW:   3752 * ps,
			TRRD:   10 * ns,
			TXAW:   50 * ns,
			TRTP:   7500 * ps,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    140 * ns,
			TCKE:   7500 * ps,
			TCKESR: 15 * ns,
			TXSDLL: 140 * ns, // no DLL on LPDDR: equals tXS
		},
		Power: PowerParams{
			VDD:  1.2,
			IDD0: 9, IDD2N: 2.2, IDD2P: 1, IDD3N: 9, IDD3P: 1.6,
			IDD4R: 150, IDD4W: 160, IDD5: 30, IDD6: 0.6,
		},
	}
}

// HMCVault approximates one vault channel of a Hybrid Memory Cube: the paper
// notes an HMC model "is only a matter of combining the crossbar model with
// 16 instances of our controller model".
func HMCVault() Spec {
	return Spec{
		Name:   "HMC-vault",
		Family: "HMC",
		Org: Organization{
			BusWidthBits:    32,
			BurstLength:     8,
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    8,
			RowBufferBytes:  256,
			RowsPerBank:     65536,
			ActivationLimit: 0,
		},
		Timing: Timing{
			TCK:    800 * ps,
			TRCD:   10 * ns,
			TCL:    10 * ns,
			TRP:    10 * ns,
			TRAS:   22 * ns,
			TBURST: 3200 * ps,
			TRFC:   80 * ns,
			TREFI:  3900 * ns,
			TWTR:   5 * ns,
			TRTW:   2 * ns,
			TRRD:   5 * ns,
			TXAW:   0,
			TRTP:   5 * ns,
			TWR:    12 * ns,
			TXP:    5 * ns,
			TXS:    90 * ns,
			TCKE:   4 * ns,
			TCKESR: 5 * ns,
			TXSDLL: 90 * ns, // stacked DRAM, no DLL: equals tXS
		},
		Power: PowerParams{
			VDD:  1.2,
			IDD0: 10, IDD2N: 2, IDD2P: 0.9, IDD3N: 10, IDD3P: 1.8,
			IDD4R: 120, IDD4W: 130, IDD5: 25, IDD6: 0.6,
		},
	}
}

// ddr3Power returns representative Micron 2 Gbit DDR3 x8 currents; the power
// comparison (§III-C3) only needs both models to use the same numbers.
func ddr3Power() PowerParams {
	return PowerParams{
		VDD:  1.5,
		IDD0: 95, IDD2N: 42, IDD2P: 12, IDD3N: 45, IDD3P: 35,
		IDD4R: 180, IDD4W: 185, IDD5: 215, IDD6: 12,
	}
}

// DDR4_3200_x64 is the representative DDR4 device, the one "ddr4" names: a
// 64-bit channel of x8 devices at 3200 MT/s with the bank-group structure
// DDR4 introduced — 16 banks in 4 groups, where back-to-back
// commands inside one group pay the long tRRD_L/tCCD_L and across groups
// the short tRRD_S/tCCD_S. Values are representative of a DDR4-3200AA
// 8 Gbit x8 datasheet.
func DDR4_3200_x64() Spec {
	return Spec{
		Name:   "DDR4-3200-x64",
		Family: "DDR4",
		Org: Organization{
			BusWidthBits:    64,
			BurstLength:     8,
			DevicesPerRank:  8,
			RanksPerChannel: 1,
			BanksPerRank:    16,
			BankGroups:      4,
			RowBufferBytes:  8192,
			RowsPerBank:     65536,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    625 * ps,
			TRCD:   13750 * ps,
			TCL:    13750 * ps,
			TRP:    13750 * ps,
			TRAS:   32 * ns,
			TBURST: 2500 * ps,
			TRFC:   350 * ns, // 8 Gbit tRFC1
			TREFI:  7800 * ns,
			TWTR:   7500 * ps,
			TRTW:   2500 * ps,
			TRRD:   2500 * ps, // tRRD_S, 4 nCK
			TRRDL:  4900 * ps, // tRRD_L
			TCCDS:  2500 * ps, // tCCD_S = 4 nCK = tBURST
			TCCDL:  5 * ns,    // tCCD_L = 8 nCK
			TXAW:   21 * ns,
			TRTP:   7500 * ps,
			TWR:    15 * ns,
			TXP:    6 * ns,
			TXS:    360 * ns, // tRFC + 10 ns
			TCKE:   5 * ns,
			TCKESR: 5625 * ps,
			TXSDLL: 534 * ns, // tDLLK = 854 nCK
		},
		Power: PowerParams{
			VDD:  1.2,
			IDD0: 60, IDD2N: 36, IDD2P: 17, IDD3N: 48, IDD3P: 34,
			IDD4R: 160, IDD4W: 132, IDD5: 200, IDD6: 15,
		},
	}
}

// DDR5_4800_x64 is the representative DDR5 device: a 64-bit channel at
// 4800 MT/s with 32 banks in 8 groups and DDR5's native same-bank refresh —
// each REFsb blacks out only one bank per group for tRFCsb, issued
// BanksPerGroup times as often as an all-bank REF, so the rest of the rank
// keeps serving through refresh. Values are representative of a 16 Gbit
// DDR5-4800B x8 datasheet.
func DDR5_4800_x64() Spec {
	return Spec{
		Name:   "DDR5-4800-x64",
		Family: "DDR5",
		Org: Organization{
			BusWidthBits:    64,
			BurstLength:     16,
			DevicesPerRank:  8,
			RanksPerChannel: 1,
			BanksPerRank:    32,
			BankGroups:      8,
			RowBufferBytes:  8192,
			RowsPerBank:     65536,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    417 * ps,
			TRCD:   16 * ns,
			TCL:    16 * ns,
			TRP:    16 * ns,
			TRAS:   32 * ns,
			TBURST: 3336 * ps, // BL16 = 8 clocks
			TRFC:   295 * ns,  // 16 Gbit tRFC1, the all-bank fallback
			TRFCSB: 130 * ns,  // 16 Gbit tRFCsb
			TREFI:  3900 * ns, // tREFI1
			TWTR:   10 * ns,   // tWTR_L
			TRTW:   2500 * ps,
			TRRD:   3336 * ps,  // tRRD_S, 8 nCK
			TRRDL:  5 * ns,     // tRRD_L
			TCCDS:  3336 * ps,  // tCCD_S = 8 nCK = tBURST
			TCCDL:  5 * ns,     // tCCD_L
			TXAW:   13340 * ps, // tFAW = 32 nCK
			TRTP:   7500 * ps,
			TWR:    30 * ns,
			TXP:    7500 * ps,
			TXS:    305 * ns, // tRFC1 + 10 ns
			TCKE:   3500 * ps,
			TCKESR: 4170 * ps,
			TXSDLL: 512 * ns,
		},
		Power: PowerParams{
			VDD:  1.1,
			IDD0: 65, IDD2N: 40, IDD2P: 20, IDD3N: 52, IDD3P: 38,
			IDD4R: 170, IDD4W: 140, IDD5: 210, IDD6: 16,
		},
		Refresh: RefSameBank,
	}
}

// LPDDR5_6400_x32 is the representative LPDDR5 device: one 32-bit channel
// at 6400 MT/s with the 16n prefetch (BL16), 16 banks in 4 groups, and the
// LPDDR distinction between per-bank precharge (tRPpb, the Timing.TRP here)
// and the longer all-bank precharge tRPab that a precharge-all — notably the
// one before an all-bank refresh — must pay. Values are representative of a
// 16 Gbit LPDDR5-6400 datasheet.
func LPDDR5_6400_x32() Spec {
	return Spec{
		Name:   "LPDDR5-6400-x32",
		Family: "LPDDR5",
		Org: Organization{
			BusWidthBits:    32,
			BurstLength:     16, // 16n prefetch
			DevicesPerRank:  1,
			RanksPerChannel: 1,
			BanksPerRank:    16,
			BankGroups:      4,
			RowBufferBytes:  2048,
			RowsPerBank:     65536,
			ActivationLimit: 4,
		},
		Timing: Timing{
			TCK:    1250 * ps, // CK at 800 MHz; data moves on WCK
			TRCD:   18 * ns,
			TCL:    17500 * ps,
			TRP:    18 * ns, // tRPpb
			TRPAB:  21 * ns, // tRPab
			TRAS:   42 * ns,
			TBURST: 2500 * ps, // 16 beats at 6400 MT/s
			TRFC:   280 * ns,  // tRFCab
			TREFI:  3900 * ns,
			TWTR:   10 * ns,
			TRTW:   2500 * ps,
			TRRD:   5 * ns,
			TCCDS:  2500 * ps, // = tBURST
			TCCDL:  5 * ns,
			TXAW:   20 * ns,
			TRTP:   7500 * ps,
			TWR:    28 * ns,
			TXP:    7500 * ps,
			TXS:    290 * ns,
			TCKE:   7500 * ps,
			TCKESR: 15 * ns,
			TXSDLL: 290 * ns, // no DLL on LPDDR: equals tXS
		},
		Power: PowerParams{
			VDD:  1.05,
			IDD0: 10, IDD2N: 2.4, IDD2P: 1.1, IDD3N: 10, IDD3P: 1.8,
			IDD4R: 165, IDD4W: 175, IDD5: 32, IDD6: 0.55,
		},
	}
}
