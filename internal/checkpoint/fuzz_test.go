package checkpoint_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// dramctrlSession wires what `dramctrl -channels 2 -pattern random -powerdown
// 300` checkpoints — two event-model controllers behind a crossbar, a
// generator, the statistics — and returns its supervised session.
func dramctrlSession(t testing.TB) *system.Session {
	cfg := core.DefaultConfig(dram.DDR3_1600_x64())
	cfg.PowerDownIdle = 300 * sim.Nanosecond
	m, err := system.NewMemory(system.MemoryConfig{
		Root: "dramctrl", Kind: system.EventBased, Channels: 2, Event: cfg, Widest: 64,
		Xbar: &xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 32, Count: 3000},
		&trafficgen.Random{Start: 0, End: 1 << 26, Align: 64, ReadPercent: 67, Seed: 7}, m.Reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), m.FrontPort("gen"))
	s := m.Session(gen)
	s.Deadline = sim.Second
	if err := s.Supervise(""); err != nil {
		t.Fatal(err)
	}
	return s
}

// frame wraps a checkpoint body in a header whose checksum and length match
// it, so a mutated body gets past the frame check to the components.
func frame(body []byte) []byte {
	header := fmt.Sprintf("DRAMCKPT v%d crc32=%08x len=%d\n", checkpoint.Version, crc32.ChecksumIEEE(body), len(body))
	return append([]byte(header), body...)
}

// FuzzRestoreCheckpoint hands mutated dramctrl-shaped images, re-framed so the
// checksum holds, to a fresh session's Manager.Restore: a checkpoint file
// comes from outside the program, and whatever it holds must end in an error
// or a restored session, never a panic.
//
//	go test ./internal/checkpoint -run '^$' -fuzz FuzzRestoreCheckpoint -fuzztime 10s -fuzzminimizetime 100x
func FuzzRestoreCheckpoint(f *testing.F) {
	s := dramctrlSession(f)
	s.Start()
	for i := 0; i < 3; i++ { // mid-run: packets in flight on both channels
		if _, err := s.Step(); err != nil {
			f.Fatal(err)
		}
	}
	img, err := s.Manager().Save()
	if err != nil {
		f.Fatal(err)
	}
	_, body, _ := bytes.Cut(img, []byte("\n"))
	if err := dramctrlSession(f).Manager().Restore(frame(body)); err != nil {
		f.Fatalf("the unmutated image: %v", err)
	}
	misrouted := bytes.Replace(body, []byte(`"route":[{"xbar":`), []byte(`"route":[{"xbar":9`), 1)
	if bytes.Equal(misrouted, body) {
		f.Fatal("no packet in the image carries a return route")
	}
	f.Add(body)
	f.Add(misrouted)
	f.Fuzz(func(t *testing.T, body []byte) {
		dramctrlSession(t).Manager().Restore(frame(body)) //nolint:errcheck // an error is a fine outcome
	})
}
