package dram

import (
	"fmt"
	"sort"
	"strings"
)

// Presets returns every built-in device preset, in a stable order (paper
// Table IV devices first, then the extension standards). The slice is
// freshly built on every call, so callers may tweak their copies freely.
func Presets() []Spec {
	return []Spec{
		DDR3_1600_x64(), DDR3_1600_x64_2R(), LPDDR3_1600_x32(),
		WideIO_200_x128(), DDR3_1333_8x8(), DDR4_2400_x64(),
		DDR4_3200_x64(), DDR5_4800_x64(), LPDDR5_6400_x32(),
		GDDR5_4000_x32(), LPDDR2_1066_x32(), HMCVault(),
	}
}

// ByName looks up a preset by its full name ("DDR3-1600-x64"),
// case-insensitively.
func ByName(name string) (Spec, error) {
	for _, s := range Presets() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dram: unknown spec %q (see Presets)", name)
}

// standardPresets maps a lower-case family keyword to the representative
// preset of that standard, as selected by the -standard flag.
var standardPresets = map[string]func() Spec{
	"ddr3":   DDR3_1600_x64,
	"ddr4":   DDR4_3200_x64,
	"ddr5":   DDR5_4800_x64,
	"lpddr2": LPDDR2_1066_x32,
	"lpddr3": LPDDR3_1600_x32,
	"lpddr5": LPDDR5_6400_x32,
	"gddr5":  GDDR5_4000_x32,
	"wideio": WideIO_200_x128,
	"hmc":    HMCVault,
}

// Standards returns the family keywords ByStandard accepts, sorted.
func Standards() []string {
	keys := make([]string, 0, len(standardPresets))
	for k := range standardPresets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ByStandard returns the representative preset for an interface family
// keyword ("ddr3", "ddr4", "ddr5", "lpddr5", ...), case-insensitively.
func ByStandard(std string) (Spec, error) {
	f, ok := standardPresets[strings.ToLower(std)]
	if !ok {
		return Spec{}, fmt.Errorf("dram: unknown standard %q (have %s)",
			std, strings.Join(Standards(), ", "))
	}
	return f(), nil
}
