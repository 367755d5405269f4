// Package dram describes DRAM devices from the controller's point of view:
// the organisation (bus width, burst length, banks, bank groups, ranks,
// row-buffer size) and the subset of timing constraints the paper identifies
// as the ones that matter for system-level behaviour (§II-B). The controller
// never models the DRAM itself — only the state transitions these parameters
// imply.
//
// # Spec is the device
//
// Consumers (internal/core, internal/cyclesim, internal/power.CheckTiming)
// take a Spec: the parameter set is the device model, and a new standard is a
// new preset (see the DDR4/DDR5/LPDDR5 presets), never new controller code.
// Besides its tables (organisation, timing, power currents) a Spec answers
// four derived questions:
//
//   - What is it? Standard names the interface family ("DDR3", "DDR5", ...).
//     A controller states its whole Spec as its checkpoint identity, so two
//     devices that differ in any table entry, let alone standard, can never
//     silently resume each other's state.
//   - How are banks arranged? Topology exposes ranks, bank groups and banks
//     per group; a device without bank groups reports Groups == 1 and every
//     constraint below collapses to its flat form.
//   - How close together may commands be? ActToAct, ColToCol and
//     PrechargeAll pick the bank-group-aware value (tRRD_L/tRRD_S,
//     tCCD_L/tCCD_S, tRPab) where the standard defines one and fall back to
//     the flat constraint (tRRD, the data bus, tRP) where it does not.
//   - How must it be refreshed? RefreshMode returns the native discipline
//     (all-bank, per-bank, or DDR5 same-bank) with its interval, blackout
//     and postponement budget.
//
// Controllers copy what they need at construction time and state that copy
// as their checkpoint identity: configure the Spec first, then build the
// controller.
//
// # Presets
//
// Presets returns the built-in catalogue and ByName looks one up
// case-insensitively, by its name or by a family keyword ("ddr4") that names
// that family's representative preset. Both command-line tools expose it as
// -spec.
package dram
