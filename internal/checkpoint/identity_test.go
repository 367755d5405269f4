package checkpoint_test

// Identity by construction: a checkpoint's configuration identity is what each
// component states about itself, so these tests walk the stated images by
// reflection instead of listing knobs. Every field of every image must refuse
// a resume when it differs; the only fields outside the comparison are the
// ones tagged `json:"-"`, and that list is pinned.

import (
	"encoding"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/dram"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// stating is a component that states cfg and has no state of its own.
type stating struct {
	plainComp
	cfg any
}

func (s stating) CheckpointConfig() any { return s.cfg }

// statedImage is one real component's configuration image, rebuilt from
// scratch on every call so a perturbation never leaks into the next.
type statedImage struct {
	name  string
	build func(t *testing.T) any
	// config is the package's Config type the image must carry whole (as
	// itself or embedded); nil for images that are not built from one.
	config reflect.Type
}

func statedImages() []statedImage {
	spec := dram.DDR4_3200_x64()
	genOver := func(p func() trafficgen.Pattern) func(*testing.T) any {
		return func(t *testing.T) any {
			cfg := trafficgen.Config{RequestBytes: 64, MaxOutstanding: 16, InterTransaction: sim.Nanosecond, Count: 100, RequestorID: 1}
			g, err := trafficgen.New(sim.NewKernel(), cfg, p(), stats.NewRegistry("t"), "gen")
			if err != nil {
				t.Fatal(err)
			}
			return g.CheckpointConfig()
		}
	}
	genCfg := reflect.TypeOf(trafficgen.Config{})
	return []statedImage{
		{"core", func(t *testing.T) any {
			cfg := core.DefaultConfig(spec)
			cfg.PowerDownIdle, cfg.SelfRefreshIdle = sim.Microsecond, 10*sim.Microsecond
			cfg.Faults = faults.Config{Seed: 1 << 60, CorrectablePerBurst: 0.01,
				StuckRows: []faults.StuckRow{{Rank: 0, Bank: 1, Row: 2, Kind: faults.Correctable}}}
			c, err := core.NewController(sim.NewKernel(), cfg, stats.NewRegistry("t"), "mc")
			if err != nil {
				t.Fatal(err)
			}
			return c.CheckpointConfig()
		}, reflect.TypeOf(core.Config{})},
		{"cyclesim", func(t *testing.T) any {
			c, err := cyclesim.NewController(sim.NewKernel(), cyclesim.DefaultConfig(spec), stats.NewRegistry("t"), "mc")
			if err != nil {
				t.Fatal(err)
			}
			return c.CheckpointConfig()
		}, reflect.TypeOf(cyclesim.Config{})},
		{"xbar", func(t *testing.T) any {
			x, err := xbar.New(sim.NewKernel(), xbar.Config{Latency: sim.Nanosecond, QueueDepth: 8, PacketInterval: sim.Nanosecond},
				xbar.InterleaveRoute(2, 64), stats.NewRegistry("t"), "xbar")
			if err != nil {
				t.Fatal(err)
			}
			x.AttachRequestor("gen")
			x.AttachMemory("mem")
			x.AttachMemory("mem")
			return x.CheckpointConfig()
		}, reflect.TypeOf(xbar.Config{})},
		{"gen-linear", genOver(func() trafficgen.Pattern {
			return &trafficgen.Linear{Start: 64, End: 1 << 20, Step: 64, ReadPercent: 50, Seed: 7}
		}), genCfg},
		{"gen-random", genOver(func() trafficgen.Pattern {
			return &trafficgen.Random{Start: 64, End: 1 << 20, Align: 64, ReadPercent: 50, Seed: 7}
		}), genCfg},
		{"gen-dramaware", genOver(func() trafficgen.Pattern {
			dec, _ := dram.NewDecoder(spec.Org, dram.RoRaBaCoCh, 1)
			return &trafficgen.DRAMAware{Decoder: dec, StrideBursts: 4, Banks: 2, ReadPercent: 50, Seed: 7}
		}), genCfg},
		{"gen-bursty", genOver(func() trafficgen.Pattern {
			return &trafficgen.Bursty{Start: 64, End: 1 << 20, Align: 64, ReadPercent: 50, BurstLen: 8, OffTime: sim.Microsecond, Seed: 7}
		}), genCfg},
		{"gen-strided", genOver(func() trafficgen.Pattern {
			return &trafficgen.Strided{Start: 64, StrideBytes: 4096, WrapBytes: 1 << 20, ReadPercent: 50, Seed: 7}
		}), genCfg},
	}
}

// addressable copies an image into settable storage.
func addressable(img any) reflect.Value {
	v := reflect.New(reflect.TypeOf(img)).Elem()
	v.Set(reflect.ValueOf(img))
	return v
}

var textMarshaler = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()

// walkFields visits every field of v the way encoding/json lays it out —
// embedded structs flattened, interfaces and pointers followed, slices by
// element — calling leaf with the dotted path of each scalar and excluded
// with "pkg.Type.Field" for each field tagged `json:"-"`. Unexported fields
// are a component's private state, not its configuration.
func walkFields(v reflect.Value, path string, leaf func(path string, v reflect.Value), excluded func(string)) {
	for v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	switch {
	case v.Kind() == reflect.Struct && !v.Type().Implements(textMarshaler):
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			sub := f.Name
			if path != "" {
				sub = path + "." + f.Name
			}
			switch {
			case f.Tag.Get("json") == "-":
				excluded(v.Type().String() + "." + f.Name)
			case !f.IsExported():
			case f.Anonymous:
				walkFields(v.Field(i), path, leaf, excluded)
			default:
				walkFields(v.Field(i), sub, leaf, excluded)
			}
		}
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			walkFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i), leaf, excluded)
		}
	default:
		leaf(path, v)
	}
}

// perturb changes a scalar to a different value of its type.
func perturb(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("no perturbation for a %s field: teach perturb about it", v.Kind())
	}
}

// TestEveryStatedFieldRefusesResume saves each component's image, changes one
// field at a time in a rebuilt copy, and requires Restore to refuse and to
// name the component and that field. It walks the images, so a field added to
// a Config tomorrow is under test without this file changing.
func TestEveryStatedFieldRefusesResume(t *testing.T) {
	named := map[string]bool{}
	for _, si := range statedImages() {
		saved := checkpoint.NewManager()
		saved.Register(si.name, stating{cfg: si.build(t)})
		img, err := saved.Save()
		if err != nil {
			t.Fatalf("%s: save: %v", si.name, err)
		}
		if si.config != nil {
			carried := reflect.TypeOf(si.build(t))
			if f, ok := carried.FieldByName("Config"); carried != si.config && !(ok && f.Anonymous && f.Type == si.config) {
				t.Errorf("%s: image %s does not carry %s whole", si.name, carried, si.config)
			}
		}
		var paths []string
		walkFields(addressable(si.build(t)), "", func(p string, _ reflect.Value) { paths = append(paths, p) }, func(string) {})
		for _, target := range paths {
			cfg := addressable(si.build(t))
			walkFields(cfg, "", func(p string, v reflect.Value) {
				if p == target {
					perturb(t, v)
				}
			}, func(string) {})
			m := checkpoint.NewManager()
			m.Register(si.name, stating{cfg: cfg.Interface()})
			err := m.Restore(img)
			want := fmt.Sprintf("configuration mismatch: %s: %s: checkpoint ", si.name, target)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with %s changed: err = %v, want %q", si.name, target, err, want)
			}
			named[si.name+":"+target] = true
		}
		// The unperturbed rebuild is the control: it restores.
		m := checkpoint.NewManager()
		m.Register(si.name, stating{cfg: si.build(t)})
		if err := m.Restore(img); err != nil {
			t.Errorf("%s: identical configuration refused: %v", si.name, err)
		}
	}
	// The knobs that sat outside every fingerprint before identity was
	// derived, by name, so the walk cannot quietly stop reaching them.
	for _, must := range []string{
		"core:XORBankHash", "core:MinWritesPerSwitch", "core:WriteHighThresh",
		"core:FrontendLatency", "core:Device.Timing.TRCD", "core:Faults.Seed", "core:Faults.StuckRows[0].Row",
		"cyclesim:Scheduling", "xbar:Memories",
		"gen-linear:Pattern.Seed", "gen-random:Pattern.Seed", "gen-dramaware:Pattern.Seed",
		"gen-bursty:Pattern.Seed", "gen-strided:Pattern.Seed", "gen-random:PatternType",
		"gen-dramaware:Pattern.Decoder.XORBankRow", "gen-linear:RequestorID",
	} {
		if !named[must] {
			t.Errorf("the walk never perturbed %s", must)
		}
	}
}

// TestExcludedConfigFields pins the complete list of fields outside the
// comparison: the three probe hubs, which only observe. Identity is every
// field that is not a probe; adding a `json:"-"` to a stated configuration is
// a decision that a resume may differ in that field, and it is made here.
func TestExcludedConfigFields(t *testing.T) {
	var got []string
	for _, si := range statedImages() {
		walkFields(addressable(si.build(t)), "", func(string, reflect.Value) {}, func(f string) {
			if !slices.Contains(got, f) {
				got = append(got, f)
			}
		})
	}
	slices.Sort(got)
	want := []string{
		"core.Config.Probes",
		"cyclesim.Config.Probes",
		"xbar.Config.Probes",
	}
	if !slices.Equal(got, want) {
		t.Errorf("fields excluded from checkpoint identity:\n got %v\nwant %v", got, want)
	}
}
