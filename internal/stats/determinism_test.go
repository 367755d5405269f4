package stats

import (
	"bytes"
	"testing"
)

// buildRegistry fills a registry with a histogram whose samples arrive in
// the given order. Same multiset of (integer, so exactly summed) samples,
// different arrival order: every derived report must still come out
// byte-identical.
func buildRegistry(order []int64) *Registry {
	reg := NewRegistry("sim")
	h := reg.NewHistogram("bytesPerAct", "bytes per activate", 0, 4096, 64)
	for _, v := range order {
		for i := int64(0); i <= v%5; i++ {
			h.Sample(float64(v))
		}
	}
	s := reg.NewScalar("reads", "read count")
	s.Add(12345)
	return reg
}

// TestDumpJSONByteIdentical guards the deterministic report path: DumpJSON
// emits keys sorted. Two registries fed the same samples in
// different orders, and repeated dumps of the same registry, must all render
// byte-for-byte the same.
func TestDumpJSONByteIdentical(t *testing.T) {
	forward := make([]int64, 0, 400)
	backward := make([]int64, 0, 400)
	for v := int64(0); v < 400; v++ {
		forward = append(forward, v*7+1)
	}
	for i := len(forward) - 1; i >= 0; i-- {
		backward = append(backward, forward[i])
	}

	a, b := buildRegistry(forward), buildRegistry(backward)

	var bufA, bufB bytes.Buffer
	if err := a.DumpJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.DumpJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("JSON dumps differ with sample order:\n--- forward ---\n%s--- backward ---\n%s", bufA.String(), bufB.String())
	}

	// Repeated dumps of one registry are stable too.
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := a.DumpJSON(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), again.Bytes()) {
			t.Fatalf("dump %d differs from the first", i)
		}
	}
}
