package system

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// memoryDescription fills in both models from their defaults, so the tests can
// flip Kind on one description. The fault seed is there to be offset.
func memoryDescription(kind Kind, channels int, withXbar bool) MemoryConfig {
	spec := dram.DDR3_1600_x64()
	cfg := MemoryConfig{
		Root: "t", Kind: kind, Channels: channels,
		Event: core.DefaultConfig(spec), Cycle: cyclesim.DefaultConfig(spec),
		Widest: 64,
	}
	cfg.Event.Faults.Seed = 40
	if withXbar {
		cfg.Xbar = &xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 16}
	}
	return cfg
}

// drive runs random traffic from one generator on front, m's front port, to
// the end and returns the statistics dump.
func drive(t *testing.T, m *Memory, front *mem.ResponsePort) (*trafficgen.Generator, []byte) {
	t.Helper()
	gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 16, Count: 400},
		&trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 70, Seed: 3}, m.Reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), front)
	if err := m.Session(gen).Run(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := m.Reg.DumpJSON(&dump); err != nil {
		t.Fatal(err)
	}
	return gen, dump.Bytes()
}

// One table over model, channel count and crossbar: what NewMemory names, what
// it stamps on each channel's configuration, which port it hands a frontend,
// and that the same description completes a run on either model. The event
// model states its configuration (for its checkpoints); the cycle model's
// stamp shows in behaviour: the description that already carries the channel
// count runs to the same statistics.
func TestNewMemory(t *testing.T) {
	for _, kind := range []Kind{EventBased, CycleBased} {
		for _, channels := range []int{1, 2, 4} {
			for _, withXbar := range []bool{false, true} {
				name := fmt.Sprintf("%s-%dch-xbar=%v", kind, channels, withXbar)
				t.Run(name, func(t *testing.T) {
					m, err := NewMemory(memoryDescription(kind, channels, withXbar))
					if !withXbar && channels > 1 {
						if err == nil || !strings.Contains(err.Error(), "need a crossbar") {
							t.Fatalf("err = %v, want several channels without a crossbar refused", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if len(m.Ctrls) != channels || (m.Xbar != nil) != withXbar {
						t.Fatalf("%d controllers, crossbar %v", len(m.Ctrls), m.Xbar != nil)
					}
					for i, c := range m.Ctrls {
						want := "mc"
						if withXbar {
							want = fmt.Sprintf("mc%d", i)
						}
						if c.Name() != want || m.Reg.Get("t."+want+".bytesRead") == nil {
							t.Errorf("channel %d is %q (statistics registered: %v), want %s", i, c.Name(), m.Reg.Get("t."+want+".bytesRead") != nil, want)
						}
						if kind == EventBased {
							stated := c.(configured).CheckpointConfig().(core.Config)
							if stated.Channels != channels || stated.Faults.Seed != 40+uint64(i) {
								t.Errorf("%s states %d channels, fault seed %d; want %d and %d", want, stated.Channels, stated.Faults.Seed, channels, 40+i)
							}
						}
					}
					if got := m.Reg.Get("t.xbar.reqRouted") != nil; got != withXbar {
						t.Errorf("crossbar statistics registered: %v, want %v", got, withXbar)
					}

					front := m.FrontPort("gen")
					if own := m.Ctrls[0].Port(); (front == own) == withXbar {
						t.Errorf("front port is the controller's own: %v, with a crossbar: %v", front == own, withXbar)
					}
					gen, dump := drive(t, m, front)
					var moved float64
					for _, c := range m.Ctrls {
						moved += c.ObsSample().BytesMoved
					}
					if !gen.Done() || moved == 0 {
						t.Errorf("run finished: %v, bytes moved: %v", gen.Done(), moved)
					}
					if kind == CycleBased {
						stamped := memoryDescription(kind, channels, withXbar)
						stamped.Cycle.Channels = channels
						m, err := NewMemory(stamped)
						if err != nil {
							t.Fatal(err)
						}
						if _, want := drive(t, m, m.FrontPort("gen")); !bytes.Equal(dump, want) {
							t.Errorf("statistics differ from a description carrying Channels %d:\n got %s\nwant %s", channels, dump, want)
						}
					}
				})
			}
		}
	}
}

// A channel count that is not a positive power of two is refused here, for
// every caller, whatever else the description says.
func TestNewMemoryRefusesChannelCounts(t *testing.T) {
	for _, channels := range []int{0, -3, 3} {
		for _, kind := range []Kind{EventBased, CycleBased} {
			if _, err := NewMemory(memoryDescription(kind, channels, true)); err == nil {
				t.Errorf("%s, %d channels: built", kind, channels)
			}
		}
	}
	if _, err := NewMemory(MemoryConfig{Kind: Kind(7), Channels: 1}); err == nil {
		t.Error("unknown controller kind: built")
	}
}

// A controller keeps refusing a request wider than a queue it could enter, so
// a description whose widest request does not fit every such queue is refused,
// naming both; one that fills a queue exactly is built.
func TestNewMemoryRefusesOversizedRequests(t *testing.T) {
	for _, c := range []struct {
		kind   Kind
		bursts uint64
		tune   func(*MemoryConfig)
		want   string // "" = built
	}{
		{EventBased, 20, nil, ""},
		{EventBased, 21, nil, "a 1344-byte request needs 21 bursts, more than the read buffer (20 bursts) holds"},
		{EventBased, 8, func(m *MemoryConfig) { m.Event.WriteBufferSize = 4 }, "more than the write buffer (4 bursts) holds"},
		{CycleBased, 40, nil, ""},
		{CycleBased, 41, nil, "a 2624-byte request needs 41 bursts, more than the transaction queue (40 bursts) holds"},
	} {
		for _, withXbar := range []bool{false, true} {
			cfg := memoryDescription(c.kind, 1, withXbar)
			cfg.Widest = c.bursts * 64
			if c.tune != nil {
				c.tune(&cfg)
			}
			_, err := NewMemory(cfg)
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Errorf("%s, %d-burst request, crossbar %v: err = %v, want %q", c.kind, c.bursts, withXbar, err, c.want)
			}
		}
	}
}
