package system

import (
	"encoding"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/trafficgen"
)

var textMarshaler = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()

// excludedFields visits every field of v the way encoding/json lays it out —
// embedded structs flattened, interfaces and pointers followed, slices by
// element — and calls excluded with "pkg.Type.Field" for each field tagged
// `json:"-"`. Unexported fields are a component's private state, not its
// configuration.
func excludedFields(v reflect.Value, excluded func(string)) {
	for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	switch {
	case v.Kind() == reflect.Struct && !v.Type().Implements(textMarshaler):
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Type().Field(i); {
			case f.Tag.Get("json") == "-":
				excluded(v.Type().String() + "." + f.Name)
			case f.IsExported():
				excludedFields(v.Field(i), excluded)
			}
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			excludedFields(v.Index(i), excluded)
		}
	}
}

// TestExcludedConfigFields pins the complete list of fields outside a
// checkpoint's identity, walked over what a session of two channels behind a
// crossbar and a generator states, on each model: the probe hubs, which only
// observe. Identity is every field that is not a probe; adding a `json:"-"`
// to a stated configuration is a decision that a resume may differ in that
// field, and it is made here.
func TestExcludedConfigFields(t *testing.T) {
	for kind, probes := range map[Kind]string{EventBased: "core.Config.Probes", CycleBased: "cyclesim.Config.Probes"} {
		m, err := NewMemory(memoryDescription(kind, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := trafficgen.New(m.K, trafficgen.Config{RequestBytes: 64, MaxOutstanding: 16, Count: 10},
			&trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 70, Seed: 3}, m.Reg, "gen")
		if err != nil {
			t.Fatal(err)
		}
		mem.Connect(gen.Port(), m.FrontPort("gen"))
		stated := m.Session(gen).Identity()
		var ids, got []string
		for id, img := range stated {
			ids = append(ids, id)
			excludedFields(reflect.ValueOf(img), func(f string) {
				if !slices.Contains(got, f) {
					got = append(got, f)
				}
			})
		}
		slices.Sort(ids)
		slices.Sort(got)
		if want := []string{"gen0", "mc0", "mc1", "session", "xbar"}; !slices.Equal(ids, want) {
			t.Errorf("%s: stated components %v, want %v", kind, ids, want)
		}
		if want := []string{probes, "xbar.Config.Probes"}; !slices.Equal(got, want) {
			t.Errorf("%s: fields excluded from checkpoint identity:\n got %v\nwant %v", kind, got, want)
		}
	}
}
