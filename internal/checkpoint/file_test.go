package checkpoint_test

// Framing and failure-mode tests: a damaged, truncated, foreign, stale or
// mismatched checkpoint must produce a clean, descriptive error — never a
// panic and never a silently wrong restore.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fakeComp is a minimal Checkpointable holding one integer.
type fakeComp struct{ v int }

func (f *fakeComp) CheckpointSave(mem.PacketTable) (any, error) {
	return map[string]int{"v": f.v}, nil
}

func (f *fakeComp) CheckpointRestore(_ mem.PacketLookup, _ sim.Restorer, data []byte) error {
	var st map[string]int
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	f.v = st["v"]
	return nil
}

func newFakeManager(fp string, v int) (*checkpoint.Manager, *fakeComp) {
	m := checkpoint.NewManager(fp)
	c := &fakeComp{v: v}
	m.Register("fake", c)
	return m, c
}

func TestFileRoundTrip(t *testing.T) {
	m, _ := newFakeManager("fp", 42)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, c2 := newFakeManager("fp", 0)
	if err := m2.RestoreFile(path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if c2.v != 42 {
		t.Fatalf("restored v = %d, want 42", c2.v)
	}
}

// restoreErr saves, mutates the image, and returns the restore error.
func restoreErr(t *testing.T, mutate func([]byte) []byte) error {
	t.Helper()
	m, _ := newFakeManager("fp", 7)
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, _ := newFakeManager("fp", 0)
	return m2.Restore(mutate(img))
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("restore accepted a damaged checkpoint, want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestRestoreRejectsCorruptedBody(t *testing.T) {
	err := restoreErr(t, func(img []byte) []byte {
		img[len(img)-2] ^= 0x40 // flip a bit inside the JSON body
		return img
	})
	wantErr(t, err, "checksum mismatch")
}

func TestRestoreRejectsTruncatedFile(t *testing.T) {
	err := restoreErr(t, func(img []byte) []byte { return img[:len(img)-5] })
	wantErr(t, err, "truncated")
}

func TestRestoreRejectsForeignFile(t *testing.T) {
	err := restoreErr(t, func([]byte) []byte { return []byte("just some text\nnot a checkpoint\n") })
	wantErr(t, err, "not a DRAMCKPT file")
}

func TestRestoreRejectsFutureVersion(t *testing.T) {
	err := restoreErr(t, func(img []byte) []byte {
		s := strings.Replace(string(img), fmt.Sprintf("DRAMCKPT v%d ", checkpoint.Version), "DRAMCKPT v99 ", 1)
		return []byte(s)
	})
	wantErr(t, err, "format v99")
}

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	m, _ := newFakeManager("spec=DDR3 page=open", 7)
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, _ := newFakeManager("spec=DDR3 page=closed", 0)
	wantErr(t, m2.Restore(img), "configuration mismatch")
}

func TestRestoreRejectsMissingSection(t *testing.T) {
	m, _ := newFakeManager("fp", 7)
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, _ := newFakeManager("fp", 0)
	m2.Register("extra", &fakeComp{})
	wantErr(t, m2.Restore(img), `no section for component "extra"`)
}

func TestRestoreRejectsExtraSection(t *testing.T) {
	m := checkpoint.NewManager("fp")
	m.Register("fake", &fakeComp{v: 7})
	m.Register("extra", &fakeComp{v: 8})
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, _ := newFakeManager("fp", 0)
	wantErr(t, m2.Restore(img), `section "extra" has no registered component`)
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	m, _ := newFakeManager("fp", 0)
	m.Register("fake", &fakeComp{})
}

// TestSaveFileIsAtomic checks the temp-and-rename contract: after a save over
// an existing checkpoint, no temp debris remains and the file is loadable.
func TestSaveFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	m, c := newFakeManager("fp", 1)
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	c.v = 2
	if err := m.SaveFile(path); err != nil {
		t.Fatalf("second save: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	m2, c2 := newFakeManager("fp", 0)
	if err := m2.RestoreFile(path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if c2.v != 2 {
		t.Fatalf("restored v = %d, want the latest save (2)", c2.v)
	}
}
