package stats

import (
	"encoding/json"
	"fmt"
	"math"
)

// Checkpoint support: every Stat kind can capture its accumulated values into
// a serializable statState and re-apply them on restore. The registry
// serializes name → state; names double as the schema check, so resuming a
// run under a different configuration (different stats registered) fails
// cleanly instead of silently mixing counters.

// statState is the serialized image of one statistic. Kind tags which fields
// are meaningful. SampleMin/SampleMax are pointers because a fresh histogram
// holds ±Inf, which JSON cannot represent: nil means "no samples yet".
type statState struct {
	Kind      string   `json:"kind"`
	Value     float64  `json:"value,omitempty"`
	Sum       float64  `json:"sum,omitempty"`
	SumSq     float64  `json:"sumsq,omitempty"`
	Count     uint64   `json:"count,omitempty"`
	Buckets   []uint64 `json:"buckets,omitempty"`
	Underflow uint64   `json:"underflow,omitempty"`
	Overflow  uint64   `json:"overflow,omitempty"`
	SampleMin *float64 `json:"smin,omitempty"`
	SampleMax *float64 `json:"smax,omitempty"`
}

// savable is implemented by every Stat kind in this package.
type savable interface {
	saveState() statState
	restoreState(st statState) error
}

func kindMismatch(name, want, got string) error {
	return fmt.Errorf("stats: %q: checkpoint holds %q state, statistic is %q", name, got, want)
}

func (s *Scalar) saveState() statState {
	return statState{Kind: "scalar", Value: s.sum}
}

func (s *Scalar) restoreState(st statState) error {
	if st.Kind != "scalar" {
		return kindMismatch(s.Name(), "scalar", st.Kind)
	}
	s.sum = st.Value
	return nil
}

func (a *Average) saveState() statState {
	return statState{Kind: "average", Sum: a.sum, Count: a.count}
}

func (a *Average) restoreState(st statState) error {
	if st.Kind != "average" {
		return kindMismatch(a.Name(), "average", st.Kind)
	}
	a.sum, a.count = st.Sum, st.Count
	return nil
}

func (h *Histogram) saveState() statState {
	st := statState{
		Kind:      "histogram",
		Sum:       h.sum,
		SumSq:     h.sumSq,
		Count:     h.count,
		Buckets:   append([]uint64(nil), h.buckets...),
		Underflow: h.underflow,
		Overflow:  h.overflow,
	}
	if h.count > 0 {
		mn, mx := h.sampleMin, h.sampleMax
		st.SampleMin, st.SampleMax = &mn, &mx
	}
	return st
}

func (h *Histogram) restoreState(st statState) error {
	if st.Kind != "histogram" {
		return kindMismatch(h.Name(), "histogram", st.Kind)
	}
	if st.Buckets != nil && len(st.Buckets) != len(h.buckets) {
		return fmt.Errorf("stats: %q: checkpoint has %d buckets, histogram has %d",
			h.Name(), len(st.Buckets), len(h.buckets))
	}
	h.Reset()
	if st.Buckets != nil {
		copy(h.buckets, st.Buckets)
	}
	h.sum, h.sumSq, h.count = st.Sum, st.SumSq, st.Count
	h.underflow, h.overflow = st.Underflow, st.Overflow
	if st.SampleMin != nil {
		h.sampleMin = *st.SampleMin
	}
	if st.SampleMax != nil {
		h.sampleMax = *st.SampleMax
	}
	if h.count > 0 && (math.IsInf(h.sampleMin, 1) || math.IsInf(h.sampleMax, -1)) {
		return fmt.Errorf("stats: %q: checkpoint has %d samples but no min/max", h.Name(), h.count)
	}
	return nil
}

// SaveState captures every registered statistic's accumulated values, keyed
// by full name. The result is JSON-serializable (map keys marshal sorted, so
// the encoding is deterministic).
func (r *Registry) SaveState() (map[string]statState, error) {
	out := make(map[string]statState, len(r.store.stats))
	for _, s := range r.store.stats {
		sv, ok := s.(savable)
		if !ok {
			return nil, fmt.Errorf("stats: %q (%T) is not checkpointable", s.Name(), s)
		}
		out[s.Name()] = sv.saveState()
	}
	return out, nil
}

// RestoreState re-applies a SaveState image to the registered statistics. The
// set of names must match exactly: a statistic missing from the checkpoint,
// or a checkpointed name with no registered statistic, is a configuration
// mismatch and an error.
func (r *Registry) RestoreState(data []byte) error {
	var saved map[string]statState
	if err := json.Unmarshal(data, &saved); err != nil {
		return fmt.Errorf("stats: restore: %w", err)
	}
	for _, s := range r.store.stats {
		name := s.Name()
		st, ok := saved[name]
		if !ok {
			return fmt.Errorf("stats: %q registered but missing from checkpoint", name)
		}
		sv, ok := s.(savable)
		if !ok {
			return fmt.Errorf("stats: %q (%T) is not checkpointable", name, s)
		}
		if err := sv.restoreState(st); err != nil {
			return err
		}
		delete(saved, name)
	}
	if len(saved) > 0 {
		//lint:allow detmap error path names one arbitrary leftover; which one does not matter
		for name := range saved {
			return fmt.Errorf("stats: checkpoint holds %q, which is not registered (config mismatch?)", name)
		}
	}
	return nil
}
