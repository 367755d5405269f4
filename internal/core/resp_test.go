package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// insertResp is the response queue the two lanes replaced: one slice kept
// sorted by sendAt, stable (equal ticks keep arrival order), every response
// inserted where it belongs. It is kept as the reference whose order the
// lanes must send in (TestResponseLanesMatchSortedQueue).
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
		s.t.Fatalf("at %s the lanes sent %p; the sorted queue's head is %+v", s.k.Now(), pkt, q)
	}
	if len(q) > 1 && q[1].sendAt == q[0].sendAt && q[0].release > 0 && q[1].release == 0 {
		s.ties++
	}
	*s.oracle = q[1:]
	s.got++
	return true
}

func (s *laneSink) RecvReqRetry() {}

// packetRefs numbers packets in first-seen order, for a controller image
// saved and restored outside a checkpoint manager.
type packetRefs []*mem.Packet

func (r *packetRefs) PacketRef(p *mem.Packet) int {
	for i, q := range *r {
		if q == p {
			return i
		}
	}
	*r = append(*r, p)
	return len(*r) - 1
}

func (r *packetRefs) PacketByRef(ref int) *mem.Packet { return (*r)[ref] }

// restoreSchedules collects a restore's deferred schedules.
type restoreSchedules []struct {
	seq uint64
	fn  func()
}

func (d *restoreSchedules) WarpClock(*sim.Kernel, sim.Clock) {}
func (d *restoreSchedules) Defer(seq uint64, fn func()) {
	*d = append(*d, struct {
		seq uint64
		fn  func()
	}{seq, fn})
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

// The two response lanes send exactly what one stably sorted queue would, in
// its order, under port refusals. A seeded feed queues, on a 5 ns grid, write
// acknowledgements and fully forwarded reads (FrontendLatency from now) and
// read responses of one to four 5 ns bursts whose data follows the previous
// read's on the bus, some stretched by the ECC correction latency; every
// response goes to the lanes and to insertResp. The grid makes an
// acknowledgement due at the tick of a DRAM response common, where the DRAM
// response must leave first. Midway, with both lanes holding responses and
// the DRAM ring rotated, the controller's image restores into a fresh
// controller that saves the same bytes and sends what was queued in the
// sorted queue's order.
func TestResponseLanesMatchSortedQueue(t *testing.T) {
	const grid, feeds = 5 * sim.Nanosecond, 4000
	var oracle []respEntry
	k := sim.NewKernel()
	sink := &laneSink{t: t, k: k, rng: rand.New(rand.NewSource(33)), refuse: 4, oracle: &oracle}
	c := newLaneController(t, sink)

	rng := rand.New(rand.NewSource(7))
	var busEnd sim.Tick
	var fed, stretched int
	var image []byte
	var restoredOracle []respEntry
	var restored *harness
	check := func() {
		t.Helper()
		if got := c.responses(); len(got) != len(oracle) {
			t.Fatalf("at %s the lanes hold %d responses, the sorted queue %d", k.Now(), len(got), len(oracle))
		} else {
			for i := range got {
				if got[i] != oracle[i] {
					t.Fatalf("at %s response %d of %d: lanes %+v, sorted queue %+v", k.Now(), i, len(got), got[i], oracle[i])
				}
			}
		}
		// Unless the port owes a retry, the respond event is due exactly when
		// the first response is.
		if e, _, ok := c.nextResp(0, 0); ok && !c.retryResp &&
			(!c.respondEvent.Scheduled() || c.respondEvent.When() != e.sendAt) {
			t.Fatalf("at %s the respond event is scheduled %v for %s; the first response is due at %s",
				k.Now(), c.respondEvent.Scheduled(), c.respondEvent.When(), e.sendAt)
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
				if c.respDRAM.n > 0 && c.respDRAM.at(c.respDRAM.n-1).sendAt > e.sendAt {
					stretched++
				}
				c.readEntries += bursts
				c.queueReadResponse(e.pkt, e.sendAt, e.release)
			}
			oracle = insertResp(oracle, e)
			fed++
		}
		check()
		if image == nil && fed > 300 && c.respFixed.Len() > 1 && c.respDRAM.n > 1 && c.respDRAM.head > 0 {
			image, restored = restoreLanes(t, k, c)
			restoredOracle = append([]respEntry(nil), oracle...)
		}
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
	t.Logf("fed %d responses: %d sent, %d out of order in the DRAM lane, %d sent ahead of a same-tick acknowledgement",
		fed, sink.got, stretched, sink.ties)
	if stretched < 100 || sink.ties < 100 {
		t.Fatalf("%d out-of-order DRAM responses and %d ties across the lanes; want at least 100 each", stretched, sink.ties)
	}
	if image == nil {
		t.Fatal("never checkpointed with both lanes holding responses")
	}

	// The restored controller sends what was queued at the checkpoint, in the
	// sorted queue's order.
	restored.k.RunUntil(restored.k.Now() + sim.Microsecond)
	sent := restored.responses
	if len(sent) != len(restoredOracle) {
		t.Fatalf("restored controller sent %d responses, %d were queued", len(sent), len(restoredOracle))
	}
	for i, pkt := range sent {
		if pkt != restoredOracle[i].pkt {
			t.Fatalf("restored controller's response %d is %p, the sorted queue's %p", i, pkt, restoredOracle[i].pkt)
		}
	}
}

// restoreLanes saves c, restores the image into a fresh controller on its own
// kernel (responses accepted as they come), and fails unless the restored
// controller saves the same bytes. It returns the image and the restored
// harness.
func restoreLanes(t *testing.T, k *sim.Kernel, c *Controller) ([]byte, *harness) {
	t.Helper()
	var refs packetRefs
	save := func(c *Controller) []byte {
		st, err := c.CheckpointSave(&refs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	image := save(c)
	r := newHarness(t, laneConfig)
	var d restoreSchedules
	if err := r.c.CheckpointRestore(&refs, &d, image); err != nil {
		t.Fatal(err)
	}
	r.k.RestoreClock(k.ClockState())
	sort.Slice(d, func(i, j int) bool { return d[i].seq < d[j].seq })
	for _, e := range d {
		r.k.RestoreSeq(e.seq)
		e.fn()
	}
	r.k.RestoreSeq(k.ClockState().NextSeq)
	if again := save(r.c); !bytes.Equal(again, image) {
		t.Fatalf("save -> restore -> save changed the image:\n%s\n%s", image, again)
	}
	if r.c.respFixed.Len() != c.respFixed.Len() || r.c.respDRAM.n != c.respDRAM.n {
		t.Fatalf("restored lanes hold %d + %d responses, saved %d + %d",
			r.c.respFixed.Len(), r.c.respDRAM.n, c.respFixed.Len(), c.respDRAM.n)
	}
	return image, r
}

// An image holding more DRAM read responses than the restoring controller's
// read buffer admits is an error from CheckpointRestore, not an overflowing
// ring.
func TestRestoreRefusesMoreReadResponsesThanTheReadBuffer(t *testing.T) {
	k := sim.NewKernel()
	c := newLaneController(t, &laneSink{t: t, k: k})
	for i := 0; i < 6; i++ {
		c.readEntries++
		c.queueReadResponse(mem.NewRead(mem.Addr(i)*64, 64, 0, 0), sim.Microsecond, 1)
	}
	var refs packetRefs
	st, err := c.CheckpointSave(&refs)
	if err != nil {
		t.Fatal(err)
	}
	image, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	small := newHarness(t, func(c *Config) {
		laneConfig(c)
		c.ReadBufferSize = 4
	})
	err = small.c.CheckpointRestore(&refs, &restoreSchedules{}, image)
	if err == nil || !strings.Contains(err.Error(), "4-entry read buffer") {
		t.Fatalf("restoring 6 read responses into a 4-entry read buffer: error %v", err)
	}
}
