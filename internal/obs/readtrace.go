package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Trace reading and validation: cmd/validate's -trace-check mode and
// self-check, dramctrl -check's span citations and the reconciliation tests
// all parse traces back through this code, so "valid" means one thing
// everywhere.

// TraceEvent is one decoded trace line.
type TraceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	ID   uint64          `json:"id"`
	Args json.RawMessage `json:"args"`
}

// TraceSummary aggregates a parsed trace for reconciliation against
// stats.Registry counts.
type TraceSummary struct {
	Events     int // event lines, metadata included, terminator excluded
	SpanBegins int // packet-lifecycle "b" events
	SpanEnds   int // packet-lifecycle "e" events
	Bursts     int // cat=burst "X" spans (RD+WR)
	Activates  int // ACT instants
	Refreshes  int // cat=refresh spans
	PowerSpans int // cat=power spans (PD + SR intervals)
	// PDTicks and SRTicks total the power-down (both flavors) and
	// self-refresh span durations in kernel ticks, summed across ranks and
	// processes — reconciled against the controllers' residency counters.
	PDTicks    int64
	SRTicks    int64
	Processes  []string
	Terminated bool // the "{}]" terminator was present (clean Close)
}

// OpenSpans returns lifecycle spans begun but not ended — in-flight packets
// at end of trace.
func (s *TraceSummary) OpenSpans() int { return s.SpanBegins - s.SpanEnds }

// ReadTraceFile parses a trace file, validating each event line. It accepts
// a file without the closing terminator (a crashed run) and reports that
// via Terminated.
func ReadTraceFile(path string) (*TraceSummary, []TraceEvent, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return parseTrace(raw)
}

// parseTrace decodes the line-oriented JSON-array layout the Tracer
// produces.
func parseTrace(raw []byte) (*TraceSummary, []TraceEvent, error) {
	text := string(raw)
	if !strings.HasPrefix(text, traceHeader) {
		return nil, nil, fmt.Errorf("obs: trace does not start with the JSON array header")
	}
	body := text[len(traceHeader):]
	sum := &TraceSummary{}
	procs := map[int]string{}
	var events []TraceEvent
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSuffix(strings.TrimSpace(line), ",")
		if line == "" {
			continue
		}
		if line == "{}]" {
			sum.Terminated = true
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, nil, fmt.Errorf("obs: bad trace line %q: %w", line, err)
		}
		if err := checkEvent(ev); err != nil {
			return nil, nil, fmt.Errorf("obs: invalid trace event %q: %w", line, err)
		}
		sum.Events++
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			var args struct {
				Name string `json:"name"`
			}
			if json.Unmarshal(ev.Args, &args) == nil {
				procs[ev.Pid] = args.Name
			}
		case ev.Cat == "pkt" && ev.Ph == "b":
			sum.SpanBegins++
		case ev.Cat == "pkt" && ev.Ph == "e":
			sum.SpanEnds++
		case ev.Cat == "burst" && ev.Ph == "X":
			sum.Bursts++
		case ev.Cat == "cmd" && ev.Name == "ACT":
			sum.Activates++
		case ev.Cat == "refresh":
			sum.Refreshes++
		case ev.Cat == "power" && ev.Ph == "X":
			sum.PowerSpans++
			d, err := fixedTicks(ev.Dur)
			if err != nil {
				return nil, nil, fmt.Errorf("obs: bad power span duration %q: %w", ev.Dur, err)
			}
			if strings.HasPrefix(ev.Name, "PD") {
				sum.PDTicks += d
			} else {
				sum.SRTicks += d
			}
		}
		events = append(events, ev)
	}
	for _, name := range procs {
		sum.Processes = append(sum.Processes, name)
	}
	sort.Strings(sum.Processes)
	return sum, events, nil
}

// fixedTicks inverts appendTS: "<µs>.<6-digit fraction>" back to kernel
// ticks. The trace's fixed-point formatting makes this exact, which is what
// lets residency reconciliation demand equality instead of tolerance.
func fixedTicks(n json.Number) (int64, error) {
	s := string(n)
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		whole, err := strconv.ParseInt(s, 10, 64)
		return whole * traceTimeDiv, err
	}
	whole, err := strconv.ParseInt(s[:dot], 10, 64)
	if err != nil {
		return 0, err
	}
	frac := s[dot+1:]
	if len(frac) != 6 {
		return 0, fmt.Errorf("want 6 fraction digits, got %q", frac)
	}
	f, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return 0, err
	}
	return whole*traceTimeDiv + f, nil
}

// checkEvent enforces the required keys per phase type.
func checkEvent(ev TraceEvent) error {
	if ev.Name == "" {
		return fmt.Errorf("missing name")
	}
	if ev.Ph == "" {
		return fmt.Errorf("missing ph")
	}
	if ev.Pid == 0 {
		return fmt.Errorf("missing pid")
	}
	if ev.Ph == "M" {
		return nil // metadata carries no timestamp
	}
	if ev.Ts == "" {
		return fmt.Errorf("missing ts")
	}
	if ev.Cat == "" {
		return fmt.Errorf("missing cat")
	}
	if ev.Ph == "X" && ev.Dur == "" {
		return fmt.Errorf("complete event missing dur")
	}
	if (ev.Ph == "b" || ev.Ph == "e" || ev.Ph == "n") && ev.ID == 0 {
		return fmt.Errorf("async event missing id")
	}
	return nil
}

// ValidateTraceStrict additionally requires the file to be one well-formed
// JSON document (i.e. the run Closed its tracer cleanly).
func ValidateTraceStrict(path string) (*TraceSummary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc []json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("obs: trace is not a JSON array: %w", err)
	}
	sum, _, err := parseTrace(raw)
	if err != nil {
		return nil, err
	}
	if !sum.Terminated {
		return nil, fmt.Errorf("obs: trace missing the closing terminator")
	}
	return sum, nil
}
