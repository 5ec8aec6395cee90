package core

import (
	"encoding/json"
	"fmt"

	"anton2/internal/ckpt"
	"anton2/internal/machine"
)

// This file threads crash-safe checkpointing through the figure runners. A
// checkpoint pairs two sections: "machine" (the complete machine.Snapshot)
// and "driver" (the runner's own position — injection counters, RNG progress,
// per-phase state). Restoring both and fast-forwarding the driver's RNG
// streams makes a resumed run bit-identical to an uninterrupted one, so
// checkpointing never perturbs results — it only bounds how much work a crash
// can lose.
//
// Resuming is strictly an optimization: any problem with a checkpoint — torn
// file, tag mismatch, shape mismatch against the rebuilt machine — silently
// falls back to a fresh run, which is always correct.

// Section names inside a run checkpoint.
const (
	sectionMachine = "machine"
	sectionDriver  = "driver"
)

// ckptAddJSON marshals v into a named checkpoint section.
func ckptAddJSON(c *ckpt.Checkpoint, name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.Add(name, b)
	return nil
}

// loadRunCkpt loads the machine snapshot and driver state from the run's
// checkpoint, or returns nil when there is nothing usable to resume from.
func loadRunCkpt(rc ckpt.RunConfig, tag string, driver any) *machine.Snapshot {
	c := rc.Load(tag)
	if c == nil {
		return nil
	}
	mb, ok := c.Section(sectionMachine)
	if !ok {
		return nil
	}
	db, ok := c.Section(sectionDriver)
	if !ok {
		return nil
	}
	var snap machine.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		return nil
	}
	if err := json.Unmarshal(db, driver); err != nil {
		return nil
	}
	return &snap
}

// ckptGuard rejects run configurations that cannot be snapshotted before any
// simulation happens, so the failure is an immediate error rather than a run
// that silently writes no checkpoints.
func ckptGuard(rc ckpt.RunConfig, mc machine.Config) error {
	if !rc.Enabled() {
		return nil
	}
	if mc.Check {
		return fmt.Errorf("core: checkpointing does not compose with the invariant suite (Config.Check)")
	}
	if mc.Telemetry != nil {
		return fmt.Errorf("core: checkpointing does not compose with telemetry capture")
	}
	return nil
}

// saveRunCkpt captures the machine, pairs the snapshot with the runner's
// driver section, and persists the checkpoint through the writer's
// atomic-replace discipline. Write failures are sticky in the writer and
// deliberately do not interrupt the simulation.
func saveRunCkpt(w *ckpt.Writer, m *machine.Machine, tag string, driver any) {
	snap, err := m.Snapshot()
	if err != nil {
		return
	}
	c := ckpt.New(tag, snap.Now)
	if ckptAddJSON(c, sectionMachine, snap) != nil || ckptAddJSON(c, sectionDriver, driver) != nil {
		return
	}
	_ = w.Save(c)
}

// installCkptHook arms the engine's checkpoint hook: at every snapshot
// boundary it asks the runner for its driver section and saves a checkpoint.
// The caller must disarm with m.Engine.SetCheckpoint(0, nil) when the run
// finishes.
func installCkptHook(m *machine.Machine, rc ckpt.RunConfig, tag string, driver func() any) {
	w := ckpt.NewWriter(rc)
	m.Engine.SetCheckpoint(rc.Every, func(uint64) { saveRunCkpt(w, m, tag, driver()) })
}
