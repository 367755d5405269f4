package experiments

import "testing"

// configs indexes an ablation's rows by configuration.
func configs(res *Table) map[string]Row {
	byName := map[string]Row{}
	for _, row := range res.Rows {
		byName[row.Get("config").(string)] = row
	}
	return byName
}

func TestPagePolicyAblation(t *testing.T) {
	res := runStudy(t, study(t, "pagepolicy"), 1200)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := configs(res)
	// Open-page policies must see row hits on a stride-8 workload; strictly
	// closed must see none.
	if byName["open"].Float("rowHits") < 0.5 {
		t.Errorf("open page hit rate = %v", byName["open"].Float("rowHits"))
	}
	if byName["closed"].Float("rowHits") != 0 {
		t.Errorf("closed page hit rate = %v", byName["closed"].Float("rowHits"))
	}
	// Closed-adaptive recovers hits by keeping rows open for queued
	// accesses.
	if byName["closed-adaptive"].Float("rowHits") <= byName["closed"].Float("rowHits") {
		t.Error("closed-adaptive no better than closed")
	}
	// On this row-friendly workload, open page delivers more bandwidth.
	if byName["open"].Float("busUtil") <= byName["closed"].Float("busUtil") {
		t.Errorf("open (%v) not above closed (%v) on row-friendly traffic",
			byName["open"].Float("busUtil"), byName["closed"].Float("busUtil"))
	}
}

func TestMappingAblation(t *testing.T) {
	res := runStudy(t, study(t, "mapping"), 1200)
	byName := configs(res)
	// Sequential traffic: RoRaBaCoCh maximises page hits (paper §III-B).
	if byName["RoRaBaCoCh"].Float("rowHits") < byName["RoCoRaBaCh"].Float("rowHits") {
		t.Errorf("RoRaBaCoCh hits (%v) below RoCoRaBaCh (%v) on sequential traffic",
			byName["RoRaBaCoCh"].Float("rowHits"), byName["RoCoRaBaCh"].Float("rowHits"))
	}
}

func TestSchedulerAblation(t *testing.T) {
	res := runStudy(t, study(t, "scheduler"), 1200)
	fcfs, frfcfs := configs(res)["FCFS"], configs(res)["FRFCFS"]
	// FR-FCFS must not lose to FCFS on reorderable traffic.
	if frfcfs.Float("busUtil")+0.02 < fcfs.Float("busUtil") {
		t.Errorf("FR-FCFS (%v) below FCFS (%v)", frfcfs.Float("busUtil"), fcfs.Float("busUtil"))
	}
}

func TestWriteDrainAblation(t *testing.T) {
	res := runStudy(t, study(t, "writedrain"), 1200)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Bigger batches amortise turnarounds: the largest batch beats the
	// smallest on utilisation for mixed traffic.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Float("busUtil") <= first.Float("busUtil") {
		t.Errorf("minWrites=32 util (%v) not above minWrites=1 (%v)",
			last.Float("busUtil"), first.Float("busUtil"))
	}
}

func TestActivationWindowAblation(t *testing.T) {
	res := runStudy(t, study(t, "xaw"), 1200)
	byName := configs(res)
	// A tighter window throttles activates: limit=2 must not beat
	// unlimited on an activate-bound workload.
	if byName["limit=2"].Float("busUtil") > byName["unlimited"].Float("busUtil")+0.02 {
		t.Errorf("limit=2 (%v) above unlimited (%v)",
			byName["limit=2"].Float("busUtil"), byName["unlimited"].Float("busUtil"))
	}
}

func TestPrefetchAblation(t *testing.T) {
	res := runStudy(t, study(t, "prefetch"), 1500)
	byName := configs(res)
	// Prefetching lowers the core-visible latency on a stream. (The raw
	// hit rate barely moves because demand accesses that catch up with an
	// in-flight prefetch count as merged misses — the latency is the win.)
	if byName["next-line"].Float("readLat") >= byName["none"].Float("readLat") {
		t.Errorf("next-line latency %v not below none %v",
			byName["next-line"].Float("readLat"), byName["none"].Float("readLat"))
	}
	if byName["stride"].Float("readLat") >= byName["none"].Float("readLat") {
		t.Errorf("stride latency %v not below none %v",
			byName["stride"].Float("readLat"), byName["none"].Float("readLat"))
	}
}

func TestRefreshAblation(t *testing.T) {
	res := runStudy(t, study(t, "refresh"), 1500)
	byName := configs(res)
	// Per-bank refresh softens the tail (paper §II-B: refreshes cause the
	// big latency spikes).
	if byName["per-bank"].Float("p99") >= byName["all-bank"].Float("p99") {
		t.Errorf("per-bank p99 %v not below all-bank %v",
			byName["per-bank"].Float("p99"), byName["all-bank"].Float("p99"))
	}
}

func TestXORHashAblation(t *testing.T) {
	res := runStudy(t, study(t, "xorhash"), 1500)
	byName := configs(res)
	if byName["xor-hash"].Float("busUtil") <= byName["plain"].Float("busUtil")*2 {
		t.Errorf("hash util %v not well above plain %v",
			byName["xor-hash"].Float("busUtil"), byName["plain"].Float("busUtil"))
	}
}
