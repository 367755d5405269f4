package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
)

// On-disk framing: a single human-readable header line carrying the format
// version, a CRC-32 (IEEE) of the body, and the body length, followed by the
// JSON body. The checksum is verified before any byte of the body is parsed,
// so a torn or bit-rotted file produces a clean error, never a panic or a
// silently wrong resume.
//
//	DRAMCKPT v5 crc32=9a3e12f0 len=8412
//	{"version":5,"configs":{"mc0":{...},...},"packets":[...],"sections":{...}}

const magic = "DRAMCKPT"

// body is the checkpoint file's JSON payload. Configs is the run's identity:
// the configuration each component states for itself (see Configured), keyed
// like Sections.
type body struct {
	Version  int                        `json:"version"`
	Configs  map[string]json.RawMessage `json:"configs"`
	Packets  []mem.PacketState          `json:"packets"`
	Sections map[string]json.RawMessage `json:"sections"`
}

// configs encodes every stated configuration — each Configured component's
// and the Described ones — by ID. It runs at Save and Restore only, so a
// session that never checkpoints pays nothing for its identity.
func (m *Manager) configs() (map[string]json.RawMessage, error) {
	all := slices.Clone(m.described)
	for _, id := range m.ids {
		if c, ok := m.comps[id].(Configured); ok {
			all = append(all, stated{id, c.CheckpointConfig()})
		}
	}
	enc := make(map[string]json.RawMessage, len(all))
	for _, st := range all {
		if _, dup := enc[st.id]; dup {
			panic(fmt.Sprintf("checkpoint: duplicate configuration id %q", st.id))
		}
		raw, err := json.Marshal(st.cfg)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: encode configuration of %q: %w", st.id, err)
		}
		enc[st.id] = raw
	}
	return enc, nil
}

// Save serializes the full registered state into a framed checkpoint image.
func (m *Manager) Save() ([]byte, error) {
	configs, err := m.configs()
	if err != nil {
		return nil, err
	}
	ctx := &saveCtx{refs: make(map[*mem.Packet]int)}
	sections := make(map[string]json.RawMessage, len(m.ids))
	for _, id := range m.ids {
		img, err := m.comps[id].CheckpointSave(ctx)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: save %q: %w", id, err)
		}
		raw, err := json.Marshal(img)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: encode %q: %w", id, err)
		}
		sections[id] = raw
	}
	// The packet table is assembled after the component sweep: refs were
	// handed out during it.
	pkts := make([]mem.PacketState, len(ctx.pkts))
	for i, p := range ctx.pkts {
		ps, err := p.SaveState()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: packet %d: %w", i, err)
		}
		pkts[i] = ps
	}
	enc, err := json.Marshal(body{
		Version:  Version,
		Configs:  configs,
		Packets:  pkts,
		Sections: sections,
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode body: %w", err)
	}
	header := fmt.Sprintf("%s v%d crc32=%08x len=%d\n", magic, Version, crc32.ChecksumIEEE(enc), len(enc))
	return append([]byte(header), enc...), nil
}

// decodeFrame validates the header and checksum and returns the body bytes.
func decodeFrame(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte(magic+" ")) {
		return nil, fmt.Errorf("checkpoint: not a %s file", magic)
	}
	var version int
	var sum uint32
	var n int
	if _, err := fmt.Sscanf(string(data[:nl]), magic+" v%d crc32=%x len=%d", &version, &sum, &n); err != nil {
		return nil, fmt.Errorf("checkpoint: malformed header %q", string(data[:nl]))
	}
	if version != Version {
		return nil, fmt.Errorf("checkpoint: format v%d, this build reads v%d", version, Version)
	}
	payload := data[nl+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("checkpoint: truncated: header says %d body bytes, file has %d", n, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (header %08x, body %08x): file corrupted", sum, got)
	}
	return payload, nil
}

// checkIdentity refuses a checkpoint taken under a different configuration
// or component set, naming the component and the first differing field.
func (m *Manager) checkIdentity(b *body) error {
	cur, err := m.configs()
	if err != nil {
		return err
	}
	for _, id := range sortedKeys(b.Configs, cur) {
		saved, inCkpt := b.Configs[id]
		now, inRun := cur[id]
		if !inCkpt || !inRun {
			return fmt.Errorf("checkpoint: configuration mismatch: %s: stated by the checkpoint %t, by this run %t", id, inCkpt, inRun)
		}
		var x, y any
		if err := errors.Join(decodeExact(saved, &x), decodeExact(now, &y)); err != nil {
			return fmt.Errorf("checkpoint: configuration of %q: %w", id, err)
		}
		if d := firstDiff("", x, y); d != "" {
			return fmt.Errorf("checkpoint: configuration mismatch: %s: %s", id, d)
		}
	}
	for _, id := range m.ids {
		if _, ok := b.Sections[id]; !ok {
			return fmt.Errorf("checkpoint: no section for component %q (config mismatch?)", id)
		}
	}
	for _, id := range sortedKeys(b.Sections, nil) {
		if _, ok := m.comps[id]; !ok {
			return fmt.Errorf("checkpoint: section %q has no registered component (config mismatch?)", id)
		}
	}
	return nil
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

// decodeExact parses JSON keeping numbers as text: 64-bit seeds and
// addresses must not round through float64 on their way to a comparison.
func decodeExact(raw []byte, out *any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	return dec.Decode(out)
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

// Restore applies a framed checkpoint image to the registered (freshly
// constructed) components. On success every kernel's clock and every
// component's state match the moment of the save. A checkpoint of another
// configuration or component set is refused before any component is touched,
// so the refused rig is still a fresh one; on any later error the rig must
// be discarded (state may be partially applied).
func (m *Manager) Restore(data []byte) error {
	payload, err := decodeFrame(data)
	if err != nil {
		return err
	}
	var b body
	if err := json.Unmarshal(payload, &b); err != nil {
		return fmt.Errorf("checkpoint: parse body: %w", err)
	}
	if b.Version != Version {
		return fmt.Errorf("checkpoint: body version v%d, this build reads v%d", b.Version, Version)
	}
	if err := m.checkIdentity(&b); err != nil {
		return err
	}
	ctx := &restoreCtx{warps: make(map[*sim.Kernel]sim.Clock)}
	ctx.pkts = make([]*mem.Packet, len(b.Packets))
	for i, ps := range b.Packets {
		if ctx.pkts[i], err = ps.Materialize(); err != nil {
			return fmt.Errorf("checkpoint: packet %d: %w", i, err)
		}
	}
	for _, id := range m.ids {
		if err := m.comps[id].CheckpointRestore(ctx, ctx, b.Sections[id]); err != nil {
			return fmt.Errorf("checkpoint: restore %q: %w", id, err)
		}
	}
	return ctx.commit()
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// and a rename, so a crash mid-write can never leave a torn file under the
// real name. Checkpoint images and experiment result files go through this
// helper — anything a restart trusts must be whole or absent.
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

// SaveFile writes a checkpoint atomically (see WriteFileAtomic).
func (m *Manager) SaveFile(path string) error {
	img, err := m.Save()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, img); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// RestoreFile reads and applies a checkpoint file written by SaveFile.
func (m *Manager) RestoreFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return m.Restore(data)
}
