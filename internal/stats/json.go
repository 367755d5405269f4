package stats

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// DumpJSON writes all statistics as a flat JSON object keyed by row name,
// sorted, for machine consumption (plotting scripts, CI comparisons).
// Values that parse as numbers are emitted as numbers, the rest as strings.
func (r *Registry) DumpJSON(w io.Writer) error {
	obj := map[string]any{}
	for _, s := range r.store.stats {
		for _, row := range s.Rows() {
			if f, err := strconv.ParseFloat(row.Value, 64); err == nil {
				obj[row.Name] = f
			} else {
				obj[row.Name] = row.Value
			}
		}
	}
	// Deterministic output: marshal through a sorted key list.
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, k := range keys {
		if _, err := io.WriteString(w, "  "); err != nil {
			return err
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		if _, err := w.Write(kb); err != nil {
			return err
		}
		if _, err := io.WriteString(w, ": "); err != nil {
			return err
		}
		vb, err := json.Marshal(obj[k])
		if err != nil {
			return err
		}
		if _, err := w.Write(vb); err != nil {
			return err
		}
		if i != len(keys)-1 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}
