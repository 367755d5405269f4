package core

import (
	"math/rand"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// respEntry is a queued response as the reference queue holds it: the
// packet, when it is due and the read-buffer entries it frees.
type respEntry struct {
	pkt     *mem.Packet
	sendAt  sim.Tick
	release int
}

// insertResp is the reference response queue: one slice kept sorted by
// sendAt, stable (equal ticks keep arrival order), every response inserted
// where it belongs. The controller must send in its order
// (TestResponseLanesMatchSortedQueue).
func insertResp(q []respEntry, r respEntry) []respEntry {
	i := len(q)
	for i > 0 && q[i-1].sendAt > r.sendAt {
		i--
	}
	q = append(q, respEntry{})
	copy(q[i+1:], q[i:])
	q[i] = r
	return q
}

func TestInsertRespOrdering(t *testing.T) {
	var q []respEntry
	for _, at := range []sim.Tick{50, 10, 30, 10, 70} {
		q = insertResp(q, respEntry{sendAt: at})
	}
	want := []sim.Tick{10, 10, 30, 50, 70}
	for i := range want {
		if q[i].sendAt != want[i] {
			t.Fatalf("order = %v", q)
		}
	}
}

// laneSink is a requestor that refuses a share of the responses it is sent
// and asks for them again a few bursts later. Every response it takes must be
// the reference queue's head, due by now.
type laneSink struct {
	t      *testing.T
	k      *sim.Kernel
	port   *mem.RequestPort
	rng    *rand.Rand
	refuse int // one response in refuse is refused; 0 takes every one
	oracle *[]respEntry
	got    int
	// ties counts the responses sent ahead of an acknowledgement due at the
	// same tick: DRAM responses, which the sorted queue holds first.
	ties int
}

func (s *laneSink) RecvTimingResp(pkt *mem.Packet) bool {
	if s.refuse > 0 && s.rng.Intn(s.refuse) == 0 {
		s.k.Call("retry", s.k.Now()+sim.Tick(s.rng.Intn(4))*5*sim.Nanosecond, s.port.SendRespRetry)
		return false
	}
	q := *s.oracle
	if len(q) == 0 || q[0].pkt != pkt || q[0].sendAt > s.k.Now() {
		s.t.Fatalf("at %s the controller sent %p; the sorted queue's head is %+v", s.k.Now(), pkt, q)
	}
	if len(q) > 1 && q[1].sendAt == q[0].sendAt && q[0].release > 0 && q[1].release == 0 {
		s.ties++
	}
	*s.oracle = q[1:]
	s.got++
	return true
}

func (s *laneSink) RecvReqRetry() {}

// responses returns every queued response in the order the controller
// sends them.
func (c *Controller) responses() []respEntry {
	out := make([]respEntry, c.resp.Len())
	for i := range out {
		pkt, at, release := c.resp.At(i)
		out[i] = respEntry{pkt: pkt, sendAt: at, release: release}
	}
	return out
}

// laneConfig sets latencies that make every kind of response distinct: a
// frontend and a backend latency, and an ECC correction longer than a burst.
func laneConfig(c *Config) {
	c.FrontendLatency = 10 * sim.Nanosecond
	c.BackendLatency = 5 * sim.Nanosecond
	c.ECCCorrectionLatency = 15 * sim.Nanosecond
}

// newLaneController builds a controller under laneConfig with sink as its
// requestor.
func newLaneController(t *testing.T, sink *laneSink) *Controller {
	t.Helper()
	cfg := DefaultConfig(dram.DDR3_1600_x64())
	laneConfig(&cfg)
	c, err := NewController(sink.k, cfg, stats.NewRegistry("t"), "mc")
	if err != nil {
		t.Fatal(err)
	}
	sink.port = mem.NewRequestPort("sink", sink, sink.k)
	mem.Connect(sink.port, c.Port())
	return c
}

// The controller's response queue (two lanes once, hence the name) sends
// exactly what one stably sorted queue would, in its order, under port
// refusals. A seeded feed queues, on a 5 ns grid, write
// acknowledgements and fully forwarded reads (FrontendLatency from now) and
// read responses of one to four 5 ns bursts whose data follows the previous
// read's on the bus, some stretched by the ECC correction latency; every
// response goes to the controller and to insertResp. The grid makes an
// acknowledgement due at the tick of a DRAM response common, where the DRAM
// response, queued earlier, must leave first.
func TestResponseLanesMatchSortedQueue(t *testing.T) {
	const grid, feeds = 5 * sim.Nanosecond, 4000
	var oracle []respEntry
	k := sim.NewKernel()
	sink := &laneSink{t: t, k: k, rng: rand.New(rand.NewSource(33)), refuse: 4, oracle: &oracle}
	c := newLaneController(t, sink)

	rng := rand.New(rand.NewSource(7))
	var busEnd, lastDRAM sim.Tick
	var fed, stretched int
	check := func() {
		t.Helper()
		if got := c.responses(); len(got) != len(oracle) {
			t.Fatalf("at %s the controller holds %d responses, the sorted queue %d", k.Now(), len(got), len(oracle))
		} else {
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("at %s response %d of %d: controller %+v, sorted queue %+v", k.Now(), i, len(got), got[i], oracle[i])
				}
			}
		}
	}
	feed := func() {
		now := k.Now()
		for n := rng.Intn(3); n >= 0; n-- {
			var e respEntry
			switch kind := rng.Intn(6); {
			case kind < 2: // write acknowledgement or forwarded read
				pkt := mem.NewWrite(mem.Addr(fed)*64, 64, 0, now)
				if kind == 1 {
					pkt = mem.NewRead(mem.Addr(fed)*64, 64, 0, now)
				}
				c.queueFixedResponse(pkt)
				e = respEntry{pkt: pkt, sendAt: now + c.cfg.FrontendLatency}
			default: // a read of 1-4 bursts served by DRAM
				if c.readEntries+4 > c.cfg.ReadBufferSize {
					continue
				}
				bursts := 1 + rng.Intn(4)
				busEnd = max(busEnd, now+2*grid) + sim.Tick(bursts)*grid
				ready := busEnd
				if kind == 5 {
					ready += c.cfg.ECCCorrectionLatency
				}
				e = respEntry{pkt: mem.NewRead(mem.Addr(fed)*64, 64*uint64(bursts), 0, now),
					sendAt: ready + c.cfg.FrontendLatency + c.cfg.BackendLatency, release: bursts}
				if lastDRAM > e.sendAt {
					stretched++
				}
				lastDRAM = e.sendAt
				c.readEntries += bursts
				c.queueReadResponse(e.pkt, e.sendAt, e.release)
			}
			oracle = insertResp(oracle, e)
			fed++
		}
		check()
	}
	var step func()
	step = func() {
		feed()
		if k.Now() < feeds*grid {
			k.Call("feed", k.Now()+grid, step)
		}
	}
	k.Call("feed", 0, step)
	k.RunUntil(feeds*grid + sim.Microsecond)
	check()
	if len(oracle) != 0 || c.readEntries != 0 {
		t.Fatalf("%d responses never sent, %d read-buffer entries held", len(oracle), c.readEntries)
	}
	t.Logf("fed %d responses: %d sent, %d due before the DRAM response queued last, %d sent ahead of a same-tick acknowledgement",
		fed, sink.got, stretched, sink.ties)
	if stretched < 100 || sink.ties < 100 {
		t.Fatalf("%d out-of-order DRAM responses and %d ties with acknowledgements; want at least 100 each", stretched, sink.ties)
	}
}
