package supervisor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/sim"
)

// A checkpoint file is a recipe, not a state image: what rebuilds the run and
// how far it got. The framing is one human-readable header line carrying the
// format version, a CRC-32 (IEEE) of the body and the body length, then the
// JSON body. The checksum is verified before any byte of the body is parsed,
// so a torn or bit-rotted file is a clean error, never a panic or a wrong
// resume.
//
//	DRAMCKPT v7 crc32=9a3e12f0 len=2412
//	{"version":7,"configs":{"mc0":{...},...},"flags":{...},"tick":4000000,"stats":"5f1c..."}
const magic = "DRAMCKPT"

// Version is the checkpoint format version. v7 is the first recipe; v1–v6
// were state images (every component's fields, every packet in flight), which
// this build cannot read.
const Version = 7

// Recipe is what a checkpoint holds.
type Recipe struct {
	Version int `json:"version"`
	// Configs is the configuration every component states about itself, by
	// component ID: the run's identity. A resume under another one is
	// refused, naming the component and the first differing field.
	Configs map[string]any `json:"configs"`
	// Flags are the command-line flags that shape the run, by name, with
	// their values. A resume under other values is refused, naming them.
	Flags map[string]string `json:"flags,omitempty"`
	// Inputs are the SHA-256 digests (hex) of the files the run reads, by the
	// flag that names each.
	Inputs map[string]string `json:"inputs,omitempty"`
	// Tick is the simulated time the run had reached, and Stats the SHA-256
	// (hex) of its statistics dump there: a replay to Tick must produce it.
	Tick  sim.Tick `json:"tick"`
	Stats string   `json:"stats"`
	// Failed is set in a postmortem only: the error the run stopped with at
	// Tick.
	Failed string `json:"failed,omitempty"`
}

// Encode frames the recipe as a checkpoint file.
func (r Recipe) Encode() ([]byte, error) {
	r.Version = Version
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	header := fmt.Sprintf("%s v%d crc32=%08x len=%d\n", magic, Version, crc32.ChecksumIEEE(body), len(body))
	return append([]byte(header), body...), nil
}

// Decode checks a checkpoint file's framing and parses its recipe. Numbers
// inside Configs stay json.Number text: 64-bit seeds and addresses must not
// round through float64 on their way to a comparison.
func Decode(data []byte) (Recipe, error) {
	var r Recipe
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte(magic+" ")) {
		return r, fmt.Errorf("checkpoint: not a %s file", magic)
	}
	var version, n int
	var sum uint32
	if _, err := fmt.Sscanf(string(data[:nl]), magic+" v%d crc32=%x len=%d", &version, &sum, &n); err != nil {
		return r, fmt.Errorf("checkpoint: malformed header %q", string(data[:nl]))
	}
	switch {
	case version < Version:
		return r, fmt.Errorf("checkpoint: format v%d is a state image; this build reads v%d recipes", version, Version)
	case version != Version:
		return r, fmt.Errorf("checkpoint: format v%d, this build reads v%d", version, Version)
	}
	body := data[nl+1:]
	if len(body) != n {
		return r, fmt.Errorf("checkpoint: truncated: header says %d body bytes, file has %d", n, len(body))
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return r, fmt.Errorf("checkpoint: checksum mismatch (header %08x, body %08x): file corrupted", sum, got)
	}
	if err := decodeExact(body, &r); err != nil {
		return r, fmt.Errorf("checkpoint: parse body: %w", err)
	}
	if r.Version != Version {
		return r, fmt.Errorf("checkpoint: body version v%d, this build reads v%d", r.Version, Version)
	}
	return r, nil
}

// decodeExact parses JSON keeping numbers held as any as text.
func decodeExact(raw []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the body")
	}
	return nil
}

// resumable refuses a checkpoint this run cannot continue: a postmortem, or
// one written under another configuration, other shaping flags or from other
// input files. Nothing is stepped before it passes. A flag that changes a
// stated configuration is named beside the field; one that changes none (a
// sampling interval, whose statistics the run registers) is refused by name.
func (r Recipe) resumable(saved Recipe) error {
	if saved.Failed != "" {
		return fmt.Errorf("checkpoint is the postmortem of a failure at %s (%s); resume the checkpoint beside it", saved.Tick, saved.Failed)
	}
	enc, err := json.Marshal(r.Configs)
	if err != nil {
		return fmt.Errorf("checkpoint: encode configuration: %w", err)
	}
	var cur map[string]any
	if err := decodeExact(enc, &cur); err != nil {
		return fmt.Errorf("checkpoint: configuration: %w", err)
	}
	for _, id := range sortedKeys(saved.Configs, cur) {
		was, inCkpt := saved.Configs[id]
		now, inRun := cur[id]
		d := fmt.Sprintf("stated by the checkpoint %t, by this run %t", inCkpt, inRun)
		if inCkpt && inRun {
			d = firstDiff("", was, now)
		}
		if d != "" {
			return fmt.Errorf("configuration mismatch: %s: %s%s", id, d, flagsDiffer(saved.Flags, r.Flags))
		}
	}
	for _, name := range sortedKeys(saved.Flags, r.Flags) {
		if was, now := saved.Flags[name], r.Flags[name]; was != now {
			return fmt.Errorf("flag -%s differs: checkpoint %q, this run %q", name, was, now)
		}
	}
	for _, name := range sortedKeys(saved.Inputs, r.Inputs) {
		if was, now := saved.Inputs[name], r.Inputs[name]; was != now {
			return fmt.Errorf("input -%s differs: checkpoint sha256 %q, this run %q", name, was, now)
		}
	}
	return nil
}

// flagsDiffer names the flags whose values differ, as a note for a
// configuration mismatch; "" when none does (the build changed instead).
func flagsDiffer(was, now map[string]string) string {
	var names []string
	for _, name := range sortedKeys(was, now) {
		if was[name] != now[name] {
			names = append(names, "-"+name)
		}
	}
	if len(names) == 0 {
		return ""
	}
	return " (set by " + strings.Join(names, ", ") + ")"
}

// sortedKeys returns the union of two maps' keys in sorted order.
func sortedKeys[V any](a, b map[string]V) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// firstDiff describes the first field, object keys in sorted order, at which
// two decoded configurations differ; "" when they agree. A field only one
// side has reads as null.
func firstDiff(path string, a, b any) string {
	if am, ok := a.(map[string]any); ok {
		if bm, ok := b.(map[string]any); ok {
			for _, k := range sortedKeys(am, bm) {
				sub := k
				if path != "" {
					sub = path + "." + k
				}
				if d := firstDiff(sub, am[k], bm[k]); d != "" {
					return d
				}
			}
			return ""
		}
	}
	if as, ok := a.([]any); ok {
		if bs, ok := b.([]any); ok && len(as) == len(bs) {
			for i := range as {
				if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), as[i], bs[i]); d != "" {
					return d
				}
			}
			return ""
		}
	}
	x, _ := json.Marshal(a) // a and b came out of a JSON decoder; they always encode
	y, _ := json.Marshal(b)
	if bytes.Equal(x, y) {
		return ""
	}
	if path != "" {
		path += ": "
	}
	return fmt.Sprintf("%scheckpoint %s, this run %s", path, x, y)
}

// digest returns the SHA-256 (hex) of what write writes: a recipe's Stats
// over the statistics dump, an Inputs entry over a file. A nil write digests
// nothing.
func digest(write func(io.Writer) error) (string, error) {
	h := sha256.New()
	if write != nil {
		if err := write(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// DigestFile returns the SHA-256 (hex) of the file at path.
func DigestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return digest(func(w io.Writer) error {
		_, err := io.Copy(w, f)
		return err
	})
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// and a rename, so a crash mid-write can never leave a torn file under the
// real name. Checkpoints and experiment result files go through this helper:
// anything a restart trusts must be whole or absent.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("write %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
