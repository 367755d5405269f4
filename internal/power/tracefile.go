package power

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Command-trace files: a plain-text, line-oriented serialization of a command
// stream, so a recorded trace can be replayed through CheckTiming without
// re-running the simulation (the record/replay oracle of dramctrl -cmd-trace
// and -cmd-trace-in). One command per line — "<tick> <kind> <rank> <bank>" —
// with '#' comments; the format is deliberately diff- and grep-friendly.

// WriteCommands serializes cmds in recording order.
func WriteCommands(w io.Writer, cmds []Command) error {
	bw := bufio.NewWriter(w)
	for _, c := range cmds {
		if _, err := fmt.Fprintf(bw, "%d %s %d %d\n", int64(c.At), c.Kind, c.Rank, c.Bank); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseKind inverts CommandKind.String.
func parseKind(s string) (CommandKind, error) {
	for k := CmdACT; k <= CmdREFSB; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("power: unknown command kind %q", s)
}

// ReadCommands parses a command-trace file written by WriteCommands.
func ReadCommands(r io.Reader) ([]Command, error) {
	var cmds []Command
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("power: line %d: want \"tick kind rank bank\", got %q", line, text)
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("power: line %d: bad tick: %w", line, err)
		}
		kind, err := parseKind(fields[1])
		if err != nil {
			return nil, fmt.Errorf("power: line %d: %w", line, err)
		}
		rank, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("power: line %d: bad rank: %w", line, err)
		}
		bank, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("power: line %d: bad bank: %w", line, err)
		}
		cmds = append(cmds, Command{Kind: kind, Rank: rank, Bank: bank, At: sim.Tick(at)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("power: reading command trace: %w", err)
	}
	return cmds, nil
}
