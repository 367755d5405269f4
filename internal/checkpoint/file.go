package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/mem"
	"repro/internal/sim"
)

// On-disk framing: a single human-readable header line carrying the format
// version, a CRC-32 (IEEE) of the body, and the body length, followed by the
// JSON body. The checksum is verified before any byte of the body is parsed,
// so a torn or bit-rotted file produces a clean error, never a panic or a
// silently wrong resume.
//
//	DRAMCKPT v2 crc32=9a3e12f0 len=8412
//	{"version":2,"fingerprint":...}

const magic = "DRAMCKPT"

// body is the checkpoint file's JSON payload.
type body struct {
	Version     int                        `json:"version"`
	Fingerprint string                     `json:"fingerprint"`
	Packets     []mem.PacketState          `json:"packets"`
	Sections    map[string]json.RawMessage `json:"sections"`
}

// Save serializes the full registered state into a framed checkpoint image.
func (m *Manager) Save() ([]byte, error) {
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
		Version:     Version,
		Fingerprint: m.fingerprint,
		Packets:     pkts,
		Sections:    sections,
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

// Restore applies a framed checkpoint image to the registered (freshly
// constructed) components. On success every kernel's clock and every
// component's state match the moment of the save; on error the rig must be
// discarded (state may be partially applied).
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
	if b.Fingerprint != m.fingerprint {
		return fmt.Errorf("checkpoint: configuration mismatch:\n  checkpoint: %s\n  this run:   %s",
			b.Fingerprint, m.fingerprint)
	}
	ctx := &restoreCtx{warps: make(map[*sim.Kernel]sim.Clock)}
	ctx.pkts = make([]*mem.Packet, len(b.Packets))
	for i, ps := range b.Packets {
		ctx.pkts[i] = ps.Materialize()
	}
	for _, id := range m.ids {
		raw, ok := b.Sections[id]
		if !ok {
			return fmt.Errorf("checkpoint: no section for component %q (config mismatch?)", id)
		}
		if err := m.comps[id].CheckpointRestore(ctx, ctx, raw); err != nil {
			return fmt.Errorf("checkpoint: restore %q: %w", id, err)
		}
	}
	if len(b.Sections) != len(m.ids) {
		//lint:allow detmap error path names one arbitrary orphan section; which one does not matter
		for id := range b.Sections {
			if _, ok := m.comps[id]; !ok {
				return fmt.Errorf("checkpoint: section %q has no registered component (config mismatch?)", id)
			}
		}
	}
	return ctx.commit()
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// and a rename, so a crash mid-write can never leave a torn file under the
// real name. Checkpoint images, experiment result files and the sweep farm's
// cache entries and queue state all go through this helper — anything a
// restart trusts must be whole or absent.
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
