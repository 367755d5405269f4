package main

import (
	"math"
	"testing"
)

// spanCount is the number of spans seen (recorded or not).
func (t *tracer) spanCount() uint64 {
	var n uint64
	for i := range t.boundaries {
		n += t.boundaries[i].n
	}
	return n
}

// TestTapTransparent holds the traced pass to its premise: for every
// workload, the tapped hand-wired topology is the computation the
// internal/system rig runs — same stats digest, same event count, same
// responses. (For the sharded workloads the traced topology is the
// single-kernel rig's; see wired.go.)
func TestTapTransparent(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			reqs := w.segReqs(w.quickReqs)
			rig, err := buildRig(w, eventModel, 1, reqs, 1, w.topo == topoSharded)
			if err != nil {
				t.Fatal(err)
			}
			if !rig.run() {
				t.Fatal("rig run did not complete")
			}
			tr := newTracer(1 << 12)
			x, err := buildWired(w, 1, reqs, wireOptions{tr: tr, oracle: true, captureReqs: 64})
			if err != nil {
				t.Fatal(err)
			}
			if !x.run() {
				t.Fatal("wired run did not complete")
			}
			if got, want := x.digest(), rig.digest(); got != want {
				t.Errorf("stats digest: wired %s, rig %s", got, want)
			}
			if got, want := x.events(), rig.events(); got != want {
				t.Errorf("events: wired %d, rig %d", got, want)
			}
			if got := x.responses(); got != reqs || rig.responses() != reqs {
				t.Errorf("responses: wired %d, rig %d, want %d", got, rig.responses(), reqs)
			}
			if tr.spanCount() < 2*reqs {
				t.Errorf("%d spans for %d requests: taps are not on the path", tr.spanCount(), reqs)
			}
			if tr.depth != 0 {
				t.Errorf("span stack depth %d after the run", tr.depth)
			}
			if cmds, bad := x.timingViolations(); bad != 0 || cmds == 0 {
				t.Errorf("timing oracle: %d violations in %d commands", bad, cmds)
			}
			if len(x.ctrlTap0.capture) != 64 {
				t.Errorf("captured %d requests, want 64", len(x.ctrlTap0.capture))
			}
		})
	}
}

// TestShardedWorkerIndependence: the sharded workload's statistics must not
// depend on the worker count (the per-layer pass steps it with 1 and 2).
func TestShardedWorkerIndependence(t *testing.T) {
	w := findWorkload("multichan_4ch")
	reqs := w.segReqs(w.quickReqs)
	var digests []string
	for _, workers := range []int{1, 2} {
		b, err := buildRig(w, eventModel, 1, reqs, workers, false)
		if err != nil {
			t.Fatal(err)
		}
		if !b.run() {
			t.Fatalf("%d workers: run did not complete", workers)
		}
		if b.steps == 0 {
			t.Errorf("%d workers: no barriers counted", workers)
		}
		digests = append(digests, b.digest())
	}
	if digests[0] != digests[1] {
		t.Errorf("stats digest depends on the worker count: %s vs %s", digests[0], digests[1])
	}
}

// TestSpanSelfTime drives the span stack with synthetic clock readings: a
// parent of 100 ns holding children of 30 ns and 20 ns (one of them holding
// a grandchild of 5 ns) has 50 ns of self time; corrections are zero here.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(16)
	parent, child, grand := tr.boundary("parent"), tr.boundary("child"), tr.boundary("grand")
	at := func(b int32, start int64) { tr.push(b, nil).start = start }

	at(parent, 1000)
	at(child, 1010)
	at(grand, 1020)
	tr.pop(1025) // grand: 5
	tr.pop(1040) // child: 30, self 25
	at(child, 1050)
	tr.pop(1070) // child: 20
	tr.pop(1100) // parent: 100, self 50

	for _, c := range []struct {
		name string
		want float64
	}{{"parent", 50}, {"child", 45}, {"grand", 5}} {
		if got := tr.selfNs(c.name); got != c.want {
			t.Errorf("self time of %s = %v, want %v", c.name, got, c.want)
		}
	}
	if tr.depth != 0 {
		t.Errorf("stack depth %d, want 0", tr.depth)
	}
	if got := tr.spans[2].Parent; got != 1 {
		t.Errorf("grandchild's parent index = %d, want 1", got)
	}
	if got := tr.spans[0].Parent; got != -1 {
		t.Errorf("top-level span's parent index = %d, want -1", got)
	}

	// With a clock bias of 2 ns per span and 10 ns per enter/exit pair, the
	// parent loses its own bias and, per child, the child's corrected work
	// plus one pair: 100 - 2 - ((30-2+10) + (20-2+10)) = 32.
	tr.clockNs, tr.pairNs = 2, 10
	if got := tr.selfNs("parent"); got != 32 {
		t.Errorf("corrected self time of parent = %v, want 32", got)
	}
	// A correction larger than the span reads as zero, never negative.
	tr.clockNs = 1000
	if got := tr.selfNs("grand"); got != 0 {
		t.Errorf("over-corrected self time = %v, want 0", got)
	}
}

// TestSpanCapacity: spans beyond the preallocated capacity are counted, not
// stored, and the sums go on.
func TestSpanCapacity(t *testing.T) {
	tr := newTracer(2)
	b := tr.boundary("b")
	for i := 0; i < 5; i++ {
		tr.push(b, nil).start = int64(10 * i)
		tr.pop(int64(10*i + 3))
	}
	if len(tr.spans) != 2 || tr.dropped != 3 {
		t.Errorf("stored %d spans, dropped %d; want 2 and 3", len(tr.spans), tr.dropped)
	}
	if got := tr.selfNs("b"); got != 15 {
		t.Errorf("self time over all spans = %v, want 15", got)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14}, {0.9, 46},
	} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if v[0] != 50 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := iqrPct(v); math.Abs(got-100*20.0/30) > 1e-9 {
		t.Errorf("iqrPct = %v", got)
	}
}

// TestTopPercentile: the highest percentile with at least ten samples beyond
// it.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true}, {100, 90, true},
		{199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := topPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}
