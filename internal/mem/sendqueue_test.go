package mem

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// sendRef is the reference a SendQueue is held to: a slice kept sorted
// stably by due tick (equal ticks keep push order).
type sendRef []sendEntry

func (r *sendRef) push(e sendEntry) {
	q := *r
	i := len(q)
	for i > 0 && q[i-1].at > e.at {
		i--
	}
	q = append(q, sendEntry{})
	copy(q[i+1:], q[i:])
	q[i] = e
	*r = q
}

// sendProbe owns a SendQueue under test. Its peer refuses a share of the
// packets and retries a few ticks later, and pushes packets inside some of the
// sends it takes, a share of them due now. Every hook and send checks the
// queue against the reference and the event rules.
type sendProbe struct {
	t   *testing.T
	k   *sim.Kernel
	rng *rand.Rand
	q   SendQueue
	ref sendRef

	// looping is set from a loop's first send to its end. lastRefused is
	// the packet refused last until it is sent; fromRetry is set inside
	// Retry.
	looping     bool
	lastRefused *Packet
	fromRetry   bool

	pushed, sent, refused, retries, inSendNow, keptPlace, retrySends, loops int
}

func newSendProbe(t *testing.T, seed int64) *sendProbe {
	p := &sendProbe{t: t, k: sim.NewKernel(), rng: rand.New(rand.NewSource(seed))}
	p.q.Init(p.k, "q.send", 2, p)
	return p
}

// push queues a fresh packet due delay from now, in the queue and the
// reference alike; its word is its number.
func (p *sendProbe) push(delay sim.Tick) {
	pkt := &Packet{Addr: Addr(p.pushed)}
	e := sendEntry{at: p.k.Now() + delay, pkt: pkt, word: p.pushed}
	p.pushed++
	p.ref.push(e)
	p.q.Push(e.pkt, e.at, e.word)
}

func (p *sendProbe) Send(pkt *Packet, word int) bool {
	now := p.k.Now()
	if word != int(pkt.Addr) {
		p.t.Fatalf("at %s: packet %d sent with word %d", now, pkt.Addr, word)
	}
	if !p.looping {
		p.looping = true
		p.loops++
	}
	if p.q.ev.Scheduled() {
		p.t.Fatalf("at %s: the event is pending while the loop sends", now)
	}
	if len(p.ref) == 0 || p.ref[0].pkt != pkt || p.ref[0].at > now {
		p.t.Fatalf("at %s: sent packet %d; the sorted reference's head is %+v", now, pkt.Addr, p.ref[:min(len(p.ref), 3)])
	}
	if p.fromRetry {
		p.retrySends++
	}
	if p.lastRefused != nil {
		if pkt != p.lastRefused {
			p.t.Fatalf("at %s: sent packet %d before the refused %d", now, pkt.Addr, p.lastRefused.Addr)
		}
		p.keptPlace++
		p.lastRefused = nil
	}
	if p.rng.Intn(5) == 0 {
		p.refused++
		p.lastRefused = pkt
		p.looping = false
		p.k.Call("peer.retry", now+sim.Tick(p.rng.Intn(4)), func() {
			p.retries++
			p.fromRetry = true
			p.q.Retry()
			p.fromRetry = false
		})
		return false
	}
	p.ref = p.ref[1:]
	p.sent++
	if p.rng.Intn(4) == 0 {
		delay := sim.Tick(p.rng.Intn(3))
		if delay == 0 {
			p.inSendNow++
		}
		p.push(delay)
	}
	return true
}

func (p *sendProbe) Done() {
	p.looping = false
	if p.q.n > 0 && p.q.at(0).at <= p.k.Now() {
		p.t.Fatalf("at %s: the loop ended with a packet due at %s unsent", p.k.Now(), p.q.at(0).at)
	}
}

// check holds the queue to the reference and to the event rules between
// kernel steps: the event is idle while the queue waits for a retry or holds
// nothing, and otherwise pending once, at the first packet's tick.
func (p *sendProbe) check() {
	t, q := p.t, &p.q
	if q.Len() != len(p.ref) {
		t.Fatalf("at %s: the queue holds %d packets, the reference %d", p.k.Now(), q.Len(), len(p.ref))
	}
	for i, e := range p.ref {
		if pkt, at, word := q.At(i); pkt != e.pkt || at != e.at || word != e.word {
			t.Fatalf("at %s: entry %d is packet %d due %s, the reference's %d due %s", p.k.Now(), i, pkt.Addr, at, e.pkt.Addr, e.at)
		}
	}
	switch {
	case q.blocked || q.Len() == 0:
		if q.ev.Scheduled() {
			t.Fatalf("at %s: the event is pending with the queue blocked %v, %d packets", p.k.Now(), q.blocked, q.Len())
		}
	case !q.ev.Scheduled() || q.ev.When() != p.ref[0].at:
		t.Fatalf("at %s: the event is pending %v at %s; the first packet is due at %s", p.k.Now(), q.ev.Scheduled(), q.ev.When(), p.ref[0].at)
	}
}

// A SendQueue sends exactly what a stable sort by due tick sends, under
// seeded refusals and pushes at arbitrary due ticks, from outside its loop
// and inside its sends. Its event is never pending while the loop runs and
// is pending, at the first packet, whenever the queue holds one and waits for
// no retry; a refused packet keeps its place and the retry sends in the call;
// a packet pushed inside a send and due now leaves in the same loop.
func TestSendQueueMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := newSendProbe(t, seed)
		feed := func() {
			for n := p.rng.Intn(4); n > 0; n-- {
				p.push(sim.Tick(p.rng.Intn(12)))
			}
		}
		for at := sim.Tick(0); at < 3000; at += sim.Tick(1 + p.rng.Intn(3)) {
			p.k.Call("feed", at, feed)
		}
		for {
			next, ok := p.k.PeekNext()
			if !ok {
				break
			}
			p.k.RunUntil(next)
			p.check()
		}
		if len(p.ref) != 0 || p.sent != p.pushed || p.keptPlace != p.refused {
			t.Fatalf("seed %d: %d of %d packets sent, %d left; %d of %d refused packets sent first on their retry",
				seed, p.sent, p.pushed, len(p.ref), p.keptPlace, p.refused)
		}
		t.Logf("seed %d: %d packets in %d loops, %d refused, %d sent inside a retry, %d pushed inside a send due now",
			seed, p.sent, p.loops, p.refused, p.retrySends, p.inSendNow)
		if p.refused < 100 || p.retrySends < 100 || p.inSendNow < 100 || p.q.ev.Scheduled() {
			t.Fatalf("seed %d: %d refusals, %d sends inside a retry, %d due-now pushes inside a send; want at least 100 each",
				seed, p.refused, p.retrySends, p.inSendNow)
		}
	}
}

// takeAll is a Sender whose peer takes every packet.
type takeAll struct{}

func (takeAll) Send(*Packet, int) bool { return true }

// TestSendQueueSteadyStateZeroAlloc: a queue that has reached its high-water
// mark pushes, sends and arms its event without allocating.
func TestSendQueueSteadyStateZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	var q SendQueue
	q.Init(k, "q.send", 4, takeAll{})
	pkt := &Packet{}
	if avg := testing.AllocsPerRun(200, func() {
		now := k.Now()
		q.Push(pkt, now+2, 0)
		q.Push(pkt, now+1, 0)
		q.Push(pkt, now+1, 0)
		k.Run()
	}); avg != 0 {
		t.Fatalf("steady-state push and send allocate %.2f objects, want 0", avg)
	}
}
