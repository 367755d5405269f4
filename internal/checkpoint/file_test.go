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

// fakeComp is a minimal Checkpointable holding one integer, built from a
// one-string configuration.
type fakeComp struct {
	v   int
	cfg string
}

func (f *fakeComp) CheckpointConfig() any { return struct{ Setup string }{f.cfg} }

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

// plainComp is a Checkpointable that states no configuration.
type plainComp struct{}

func (plainComp) CheckpointSave(mem.PacketTable) (any, error) { return nil, nil }

func (plainComp) CheckpointRestore(mem.PacketLookup, sim.Restorer, []byte) error { return nil }

func newFakeManager(cfg string, v int) (*checkpoint.Manager, *fakeComp) {
	m := checkpoint.NewManager()
	c := &fakeComp{v: v, cfg: cfg}
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

func TestRestoreRejectsConfigMismatch(t *testing.T) {
	m, _ := newFakeManager("spec=DDR3 page=open", 7)
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, c2 := newFakeManager("spec=DDR3 page=closed", 0)
	wantErr(t, m2.Restore(img),
		`configuration mismatch: fake: Setup: checkpoint "spec=DDR3 page=open", this run "spec=DDR3 page=closed"`)
	if c2.v != 0 {
		t.Fatalf("refused restore still applied the section (v = %d)", c2.v)
	}
}

// TestRestoreRejectsV3 pins a format bump: a v3 image (whose session
// states an adaptive-quanta count this build no longer has) is refused by the
// version message before any section is applied, not compared field by field.
func TestRestoreRejectsV3(t *testing.T) { testRestoreRejectsVersion(t, 3) }

// TestRestoreRejectsV4: a v4 image keeps the way back in the crossbar's
// origin table, which this build does not read — a request saved behind a
// crossbar would be restored with no return route — so it is refused whole.
func TestRestoreRejectsV4(t *testing.T) { testRestoreRejectsVersion(t, 4) }

// TestRestoreRejectsV5: a v5 image states three configuration fields this
// build no longer has (see checkpoint.Version); it is refused at the header,
// not by a field-path diff naming a field nobody can set.
func TestRestoreRejectsV5(t *testing.T) { testRestoreRejectsVersion(t, 5) }

func testRestoreRejectsVersion(t *testing.T, old int) {
	m, _ := newFakeManager("fp", 7)
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	was := strings.Replace(string(img), fmt.Sprintf("DRAMCKPT v%d ", checkpoint.Version), fmt.Sprintf("DRAMCKPT v%d ", old), 1)
	m2, c2 := newFakeManager("fp", 0)
	wantErr(t, m2.Restore([]byte(was)), fmt.Sprintf("format v%d, this build reads v%d", old, checkpoint.Version))
	if c2.v != 0 {
		t.Fatalf("refused restore still applied the section (v = %d)", c2.v)
	}
}

// TestDescribeIsCompared covers configuration stated without a component.
func TestDescribeIsCompared(t *testing.T) {
	m, _ := newFakeManager("cfg", 7)
	m.Describe("session", struct{ Quanta int }{8})
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, _ := newFakeManager("cfg", 0)
	m2.Describe("session", struct{ Quanta int }{1})
	wantErr(t, m2.Restore(img), "session: Quanta: checkpoint 8, this run 1")
	m3, _ := newFakeManager("cfg", 0)
	wantErr(t, m3.Restore(img), "session: stated by the checkpoint true, by this run false")
}

func TestRestoreRejectsMissingSection(t *testing.T) {
	m, _ := newFakeManager("fp", 7)
	img, err := m.Save()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, _ := newFakeManager("fp", 0)
	m2.Register("extra", &plainComp{})
	wantErr(t, m2.Restore(img), `no section for component "extra"`)
}

func TestRestoreRejectsExtraSection(t *testing.T) {
	m := checkpoint.NewManager()
	m.Register("fake", &fakeComp{v: 7, cfg: "fp"})
	m.Register("extra", &plainComp{})
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
