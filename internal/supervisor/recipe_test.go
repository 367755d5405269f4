package supervisor

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// sample is a recipe as dramctrl writes one: stated configurations with a
// 64-bit seed, the shaping flags, an input hash, a tick and a digest.
func sample() Recipe {
	return Recipe{
		Configs: map[string]any{
			"mc0":     struct{ Page, Seed any }{"open", uint64(1) << 63},
			"session": struct{ Step sim.Tick }{sim.Microsecond},
		},
		Flags:  map[string]string{"page": "open", "requests": "2000"},
		Inputs: map[string]string{"trace-in": "5f1c"},
		Tick:   40 * sim.Microsecond,
		Stats:  "a7e3",
	}
}

func encode(t testing.TB, r Recipe) []byte {
	t.Helper()
	data, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// A recipe decodes to what was encoded, numbers inside the configurations
// kept exact, and a run with the same recipe may resume it.
func TestFileRoundTrip(t *testing.T) {
	want := sample()
	got, err := Decode(encode(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != Version || got.Tick != want.Tick || got.Stats != want.Stats ||
		!reflect.DeepEqual(got.Flags, want.Flags) || !reflect.DeepEqual(got.Inputs, want.Inputs) {
		t.Fatalf("decoded %+v, encoded %+v", got, want)
	}
	if seed := got.Configs["mc0"].(map[string]any)["Seed"]; seed.(interface{ String() string }).String() != "9223372036854775808" {
		t.Errorf("a 64-bit seed came back as %v", seed)
	}
	if err := want.resumable(got); err != nil {
		t.Errorf("the same recipe refuses its own checkpoint: %v", err)
	}
}

// A flag recorded as "" equals one the run does not define, so a checkpoint
// that recorded a since-deleted flag unset (dramctrl's old -standard) resumes.
func TestEmptyFlagMatchesAbsentFlag(t *testing.T) {
	saved := sample()
	saved.Flags["standard"] = ""
	got, err := Decode(encode(t, saved))
	if err != nil {
		t.Fatal(err)
	}
	if err := sample().resumable(got); err != nil {
		t.Errorf("a flag recorded as \"\" refuses a run without it: %v", err)
	}
}

// A damaged, foreign or old file is refused by name before its body is read.
func TestDecodeRefuses(t *testing.T) {
	good := encode(t, sample())
	header, body, _ := bytes.Cut(good, []byte("\n"))
	flipped := bytes.Clone(good)
	flipped[len(flipped)-2] ^= 0x40
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"checksum", flipped, "checksum mismatch"},
		{"truncated", good[:len(good)-5], "truncated: header says"},
		{"foreign", []byte("just some text\nnot a checkpoint\n"), "not a DRAMCKPT file"},
		{"malformed-header", append([]byte("DRAMCKPT seven\n"), body...), "malformed header"},
		{"v3", withVersion(good, 3), "format v3 is a state image; this build reads v7 recipes"},
		{"v4", withVersion(good, 4), "format v4 is a state image; this build reads v7 recipes"},
		{"v5", withVersion(good, 5), "format v5 is a state image; this build reads v7 recipes"},
		{"v6", withVersion(good, 6), "format v6 is a state image; this build reads v7 recipes"},
		{"future", withVersion(good, 99), "format v99, this build reads v7"},
		{"trailing-data", reframe(append(bytes.Clone(body), " {}"...)), "trailing data"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
	if !bytes.HasPrefix(header, []byte("DRAMCKPT v7 crc32=")) {
		t.Errorf("header %q", header)
	}
}

// withVersion rewrites the format version in a file's header.
func withVersion(data []byte, v int) []byte {
	return bytes.Replace(data, []byte("DRAMCKPT v7 "), []byte(fmt.Sprintf("DRAMCKPT v%d ", v)), 1)
}

// reframe puts a body under a header whose length and checksum match it.
func reframe(body []byte) []byte {
	header := fmt.Sprintf("%s v%d crc32=%08x len=%d\n", magic, Version, crc32.ChecksumIEEE(body), len(body))
	return append([]byte(header), body...)
}

// A checkpoint of another configuration is refused naming the component, the
// field and the flags that differ; other shaping flags alone, and other input
// files, are refused by flag.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	saved := sample()
	for _, c := range []struct {
		name string
		edit func(*Recipe)
		want string
	}{
		{"field", func(r *Recipe) {
			r.Configs["mc0"] = struct{ Page, Seed any }{"closed", uint64(1) << 63}
			r.Flags = map[string]string{"page": "closed", "requests": "2000"}
		}, `configuration mismatch: mc0: Page: checkpoint "open", this run "closed" (set by -page)`},
		{"64-bit field", func(r *Recipe) {
			r.Configs["mc0"] = struct{ Page, Seed any }{"open", uint64(1)<<63 + 1}
		}, `configuration mismatch: mc0: Seed: checkpoint 9223372036854775808, this run 9223372036854775809`},
		{"component", func(r *Recipe) { delete(r.Configs, "mc0") }, "configuration mismatch: mc0: stated by the checkpoint true, by this run false"},
		{"flag", func(r *Recipe) { r.Flags["obs-sample"] = "1000" }, `flag -obs-sample differs: checkpoint "", this run "1000"`},
		{"input", func(r *Recipe) { r.Inputs = map[string]string{"trace-in": "0d9e"} }, `input -trace-in differs: checkpoint sha256 "5f1c", this run "0d9e"`},
		{"postmortem", func(*Recipe) {}, "postmortem of a failure at 40us (boom)"},
	} {
		run := sample()
		c.edit(&run)
		was, err := Decode(encode(t, saved))
		if err != nil {
			t.Fatal(err)
		}
		if c.name == "postmortem" {
			was.Failed = "boom"
		}
		if err := run.resumable(was); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestSaveFileIsAtomic checks the temp-and-rename contract: after a write
// over an existing checkpoint, no temp debris remains and the file holds the
// latest recipe.
func TestSaveFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	r := sample()
	for _, tick := range []sim.Tick{1, 2} {
		r.Tick = tick
		if err := WriteFileAtomic(path, encode(t, r)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt" {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	if got := recipeAt(t, path); got.Tick != 2 {
		t.Fatalf("file holds tick %s, want the latest save's", got.Tick)
	}
}

// FuzzDecodeRecipe hands Decode mutated checkpoint files: a checkpoint comes
// from outside the program, and whatever it holds must end in an error or a
// recipe that encodes and decodes to itself and can be checked against a run,
// never a panic.
//
//	go test ./internal/supervisor -run '^$' -fuzz FuzzDecodeRecipe -fuzztime 10s -fuzzminimizetime 100x
func FuzzDecodeRecipe(f *testing.F) {
	good := encode(f, sample())
	flipped := bytes.Clone(good)
	flipped[bytes.IndexByte(good, '=')+1] ^= 1 // a checksum digit
	old, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dramctrl", "testdata", "v6.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{good, good[:len(good)/2], flipped, old[:bytes.IndexByte(old, '\n')+1]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(encode(t, r))
		if err != nil {
			t.Fatalf("a decoded recipe does not decode again: %v", err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("re-encoding changed the recipe:\n%+v\n%+v", r, again)
		}
		sample().resumable(r) //nolint:errcheck // a refusal is a fine outcome
	})
}
