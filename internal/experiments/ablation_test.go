package experiments

import "testing"

func TestPagePolicyAblation(t *testing.T) {
	res, err := Runner{}.pagePolicyAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	// Open-page policies must see row hits on a stride-8 workload; strictly
	// closed must see none.
	if byName["open"].RowHitRate < 0.5 {
		t.Errorf("open page hit rate = %v", byName["open"].RowHitRate)
	}
	if byName["closed"].RowHitRate != 0 {
		t.Errorf("closed page hit rate = %v", byName["closed"].RowHitRate)
	}
	// Closed-adaptive recovers hits by keeping rows open for queued
	// accesses.
	if byName["closed-adaptive"].RowHitRate <= byName["closed"].RowHitRate {
		t.Error("closed-adaptive no better than closed")
	}
	// On this row-friendly workload, open page delivers more bandwidth.
	if byName["open"].BusUtil <= byName["closed"].BusUtil {
		t.Errorf("open (%v) not above closed (%v) on row-friendly traffic",
			byName["open"].BusUtil, byName["closed"].BusUtil)
	}
}

func TestMappingAblation(t *testing.T) {
	res, err := Runner{}.mappingAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	// Sequential traffic: RoRaBaCoCh maximises page hits (paper §III-B).
	if byName["RoRaBaCoCh"].RowHitRate < byName["RoCoRaBaCh"].RowHitRate {
		t.Errorf("RoRaBaCoCh hits (%v) below RoCoRaBaCh (%v) on sequential traffic",
			byName["RoRaBaCoCh"].RowHitRate, byName["RoCoRaBaCh"].RowHitRate)
	}
}

func TestSchedulerAblation(t *testing.T) {
	res, err := Runner{}.schedulerAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	var fcfs, frfcfs AblationRow
	for _, r := range res.Rows {
		if r.Config == "FCFS" {
			fcfs = r
		} else {
			frfcfs = r
		}
	}
	// FR-FCFS must not lose to FCFS on reorderable traffic.
	if frfcfs.BusUtil+0.02 < fcfs.BusUtil {
		t.Errorf("FR-FCFS (%v) below FCFS (%v)", frfcfs.BusUtil, fcfs.BusUtil)
	}
}

func TestWriteDrainAblation(t *testing.T) {
	res, err := Runner{}.writeDrainAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Bigger batches amortise turnarounds: the largest batch beats the
	// smallest on utilisation for mixed traffic.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.BusUtil <= first.BusUtil {
		t.Errorf("minWrites=32 util (%v) not above minWrites=1 (%v)",
			last.BusUtil, first.BusUtil)
	}
}

func TestActivationWindowAblation(t *testing.T) {
	res, err := Runner{}.activationWindowAblation(1200)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	// A tighter window throttles activates: limit=2 must not beat
	// unlimited on an activate-bound workload.
	if byName["limit=2"].BusUtil > byName["unlimited"].BusUtil+0.02 {
		t.Errorf("limit=2 (%v) above unlimited (%v)",
			byName["limit=2"].BusUtil, byName["unlimited"].BusUtil)
	}
}

func TestPrefetchAblation(t *testing.T) {
	res, err := Runner{}.prefetchAblation(1500)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	// Prefetching lowers the core-visible latency on a stream. (The raw
	// hit rate barely moves because demand accesses that catch up with an
	// in-flight prefetch count as merged misses — the latency is the win.)
	if byName["next-line"].AvgReadLatNs >= byName["none"].AvgReadLatNs {
		t.Errorf("next-line latency %v not below none %v",
			byName["next-line"].AvgReadLatNs, byName["none"].AvgReadLatNs)
	}
	if byName["stride"].AvgReadLatNs >= byName["none"].AvgReadLatNs {
		t.Errorf("stride latency %v not below none %v",
			byName["stride"].AvgReadLatNs, byName["none"].AvgReadLatNs)
	}
}

func TestRefreshAblation(t *testing.T) {
	res, err := Runner{}.refreshAblation(1500)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	// Per-bank refresh softens the tail (paper §II-B: refreshes cause the
	// big latency spikes).
	if byName["per-bank"].P99Ns >= byName["all-bank"].P99Ns {
		t.Errorf("per-bank p99 %v not below all-bank %v",
			byName["per-bank"].P99Ns, byName["all-bank"].P99Ns)
	}
}

func TestXORHashAblation(t *testing.T) {
	res, err := Runner{}.xorHashAblation(1500)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Config] = r
	}
	if byName["xor-hash"].BusUtil <= byName["plain"].BusUtil*2 {
		t.Errorf("hash util %v not well above plain %v",
			byName["xor-hash"].BusUtil, byName["plain"].BusUtil)
	}
}
