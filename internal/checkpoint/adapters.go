package checkpoint

import (
	"encoding/json"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Adapters wrap infrastructure that should not depend on the checkpoint
// package (the kernel, the stats registry) into Checkpointable components.

type kernelAdapter struct{ k *sim.Kernel }

// WrapKernel returns a Checkpointable that saves and restores a kernel's
// clock (sim.Clock: tick, executed-event count, watchdog same-tick run, next
// sequence number). The event queue is NOT in it by design: each component
// re-creates its own events on restore. Register one per kernel, before the
// components scheduled on it.
func WrapKernel(k *sim.Kernel) Checkpointable { return kernelAdapter{k: k} }

func (a kernelAdapter) CheckpointSave(mem.PacketTable) (any, error) {
	return a.k.ClockState(), nil
}

func (a kernelAdapter) CheckpointRestore(_ mem.PacketLookup, rs sim.Restorer, data []byte) error {
	var st sim.Clock
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("kernel restore: %w", err)
	}
	rs.WarpClock(a.k, st)
	return nil
}

type statsAdapter struct{ reg *stats.Registry }

// WrapStats returns a Checkpointable that saves and restores every statistic
// registered under the registry's root.
func WrapStats(reg *stats.Registry) Checkpointable { return statsAdapter{reg: reg} }

func (a statsAdapter) CheckpointSave(mem.PacketTable) (any, error) {
	return a.reg.SaveState()
}

func (a statsAdapter) CheckpointRestore(_ mem.PacketLookup, _ sim.Restorer, data []byte) error {
	return a.reg.RestoreState(data)
}
