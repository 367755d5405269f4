package power

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dram"
)

// FuzzReadCommands feeds arbitrary bytes to the command-trace reader, which
// reads files from outside the program: it returns an error or a stream, never
// panics, and a stream it accepts writes back out and reads in again unchanged
// and can be checked against any device without panicking.
//
//	go test ./internal/power -run '^$' -fuzz FuzzReadCommands -fuzztime 10s -fuzzminimizetime 100x
func FuzzReadCommands(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteCommands(&seed, []Command{
		{Kind: CmdACT, Rank: 0, Bank: 3, At: 1000},
		{Kind: CmdRD, Rank: 0, Bank: 3, At: 15000},
		{Kind: CmdWR, Rank: 1, Bank: 3, At: 25000},
		{Kind: CmdPRE, Rank: 0, Bank: 3, At: 60000},
		{Kind: CmdREF, Rank: 0, Bank: 0, At: 80000},
		{Kind: CmdREFSB, Rank: 0, Bank: 1, At: 90000},
		{Kind: CmdPDE, Rank: 0, Bank: PDPrecharge, At: 200000},
		{Kind: CmdPDX, Rank: 0, Bank: 0, At: 300000},
		{Kind: CmdSRE, Rank: 0, Bank: 0, At: 400000},
		{Kind: CmdSRX, Rank: 0, Bank: 0, At: 900000},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# a comment\n\n  7 ACT 0 0  \n"))
	f.Add([]byte("1 NOP 0 0\n"))
	f.Add([]byte("-5 RD -1 99\n"))
	devices := []dram.Spec{dram.DDR3_1600_x64(), dram.DDR3_1600_x64_2R(), dram.DDR5_4800_x64(), dram.LPDDR5_6400_x32()}
	f.Fuzz(func(t *testing.T, data []byte) {
		cmds, err := ReadCommands(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCommands(&out, cmds); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCommands(&out)
		if err != nil || !slices.Equal(again, cmds) {
			t.Fatalf("round trip: err %v, %d commands in, %d out", err, len(cmds), len(again))
		}
		for _, dev := range devices {
			CheckTiming(dev, cmds)
		}
	})
}
