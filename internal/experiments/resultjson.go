package experiments

import "encoding/json"

// Canonical machine-readable result schemas: the -json outputs of bwsweep and
// explore are rendered through these structs with the one encoder, so two runs
// of the same grid are byte-comparable (cmp, not just semantically equal).
// Nothing host-dependent (timestamps, durations, hostnames) belongs here for
// exactly that reason.

// sweepJSON is the canonical form of a SweepResult.
type sweepJSON struct {
	Kind     string     `json:"kind"` // "bwsweep"
	Figure   int        `json:"figure"`
	Name     string     `json:"name"`
	Spec     string     `json:"spec"`
	Mapping  string     `json:"mapping"`
	Page     string     `json:"page"` // "open" or "closed"
	ReadPct  int        `json:"readPct"`
	Requests uint64     `json:"requests"`
	Partial  bool       `json:"partial"` // rows are missing (interrupt)
	Rows     []SweepRow `json:"rows"`
}

// NewSweepJSON renders a sweep result into its canonical form, to be passed
// to EncodeResultJSON. partial marks a result with missing rows — an
// interrupted run.
func NewSweepJSON(res *SweepResult, partial bool) any {
	page := "open"
	if res.Spec.ClosedPage {
		page = "closed"
	}
	return sweepJSON{
		Kind:     "bwsweep",
		Figure:   res.Spec.Figure,
		Name:     res.Spec.Name,
		Spec:     res.Spec.Spec.Name,
		Mapping:  res.Spec.Mapping.String(),
		Page:     page,
		ReadPct:  res.Spec.ReadPct,
		Requests: res.Spec.Requests,
		Partial:  partial,
		Rows:     append([]SweepRow{}, res.Rows...), // "rows": [] when there are none, never null
	}
}

// fig9JSON is the canonical form of a Fig9Result.
type fig9JSON struct {
	Kind   string `json:"kind"` // "explore"
	MemOps uint64 `json:"memOps"`
	Cores  int    `json:"cores"`
	// Partial marks missing rows; Normalized reports whether NormIPC was
	// computed (it needs the DDR3 baseline, so partial results skip it).
	Partial    bool      `json:"partial"`
	Normalized bool      `json:"normalized"`
	Rows       []Fig9Row `json:"rows"`
}

// NewFig9JSON renders a case-study result into its canonical form, to be
// passed to EncodeResultJSON.
func NewFig9JSON(res *Fig9Result, memOps uint64, cores int, partial bool) any {
	return fig9JSON{
		Kind: "explore", MemOps: memOps, Cores: cores,
		Partial: partial, Normalized: !partial,
		Rows: append([]Fig9Row{}, res.Rows...),
	}
}

// EncodeResultJSON is the one encoder every canonical result goes through:
// two-space indentation, trailing newline.
func EncodeResultJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
