package core

import (
	"encoding/json"
	"errors"

	"anton2/internal/ckpt"
	"anton2/internal/exp"
	"anton2/internal/machine"
	"anton2/internal/traffic"
)

// This file threads crash-safe checkpointing through the two drivers, runBatch
// and runMDStep. A checkpoint pairs two sections: "machine" (the machine's
// binary snapshot record, machine.AppendSnapshot) and "driver" (the driver's
// own position — a batchProgress or a workload.Progress — as JSON, because it
// is whatever struct the driver keeps). Restoring both and fast-forwarding
// the driver's RNG streams makes a resumed run bit-identical to an
// uninterrupted one, so checkpointing never perturbs results — it only bounds
// how much work a crash can lose.
//
// A checkpointing run always resumes from a usable checkpoint at its path, and
// resuming is strictly an optimization: any problem with a checkpoint — torn
// file, another format version, tag mismatch, shape mismatch against the
// rebuilt machine — silently falls back to a fresh run, which is always
// correct.

// ErrNoRunCkpt is what anton2bench answers when asked to checkpoint an
// experiment none of whose jobs has an exp.Job.RunCkpt: an analytic result,
// or a family whose points step their machines from loops of their own.
var ErrNoRunCkpt = errors.New("checkpointing: this experiment's jobs have no RunCkpt")

// CheckpointFlags turns the CLIs' -checkpoint-dir / -checkpoint-every pair
// into sweep options, or says why it cannot: the flags must come together,
// and mc — the config every checkpointed machine will carry — must be
// machine.Config.Checkpointable. With neither flag it returns the zero value:
// checkpointing off.
func CheckpointFlags(mc machine.Config, dir string, every uint64) (exp.CheckpointOptions, error) {
	var off exp.CheckpointOptions
	switch {
	case dir == "" && every == 0:
		return off, nil
	case dir == "":
		return off, errors.New("-checkpoint-every requires -checkpoint-dir")
	case every == 0:
		return off, errors.New("-checkpoint-dir requires -checkpoint-every")
	}
	if err := mc.Checkpointable(); err != nil {
		return off, err
	}
	return exp.CheckpointOptions{Dir: dir, Every: every}, nil
}

// Section names inside a run checkpoint.
const (
	sectionMachine = "machine"
	sectionDriver  = "driver"
)

// loadRunCkpt loads the machine snapshot record and driver state from the
// run's checkpoint, or returns nil when there is nothing usable to resume
// from.
func loadRunCkpt(rc ckpt.RunConfig, tag string, driver any) []byte {
	c := rc.Load(tag)
	if c == nil {
		return nil
	}
	snap, hasMachine := c.Section(sectionMachine)
	db, hasDriver := c.Section(sectionDriver)
	if !hasMachine || !hasDriver || json.Unmarshal(db, driver) != nil {
		return nil
	}
	return snap
}

// resumeRunCkpt is what both drivers call first on an enabled rc. It refuses
// a config that is not Checkpointable rather than let the run go on silently
// writing no checkpoints. Otherwise it tries to resume the run on m, freshly
// built by BuildMachine(mc, weightPatterns...): it decodes the checkpoint's
// driver section into driver, lets valid (when non-nil) vet it against the
// run, and restores the machine snapshot. It returns the machine to run on and
// whether it holds the restored state.
func resumeRunCkpt(m *machine.Machine, rc ckpt.RunConfig, tag string, driver any, valid func() bool,
	mc machine.Config, weightPatterns ...traffic.Pattern) (*machine.Machine, bool, error) {
	if err := mc.Checkpointable(); err != nil {
		return nil, false, err
	}
	snap := loadRunCkpt(rc, tag, driver)
	if snap == nil || (valid != nil && !valid()) {
		return m, false, nil
	}
	if m.RestoreSnapshot(snap) == nil {
		return m, true, nil
	}
	// A failed restore may leave the machine partially mutated; rebuild and
	// start over — resuming is only an optimization.
	m, _, err := BuildMachine(mc, weightPatterns...)
	return m, false, err
}

// runCkptWriter persists one run's checkpoints: it owns the run's checkpoint
// path for the life of the run and keeps the snapshot and record buffers
// between checkpoints, so a checkpoint in a steady run allocates only the
// driver section's JSON.
type runCkptWriter struct {
	rc           ckpt.RunConfig
	m            *machine.Machine
	tag          string
	snap, record []byte
}

// newRunCkptWriter starts the run's checkpoint writing on m, the machine the
// run will step (after any resume). Temp files a killed earlier writer of the
// same path left behind go first.
func newRunCkptWriter(rc ckpt.RunConfig, m *machine.Machine, tag string) *runCkptWriter {
	rc.RemoveOrphans()
	return &runCkptWriter{rc: rc, m: m, tag: tag}
}

// save captures the machine, pairs the snapshot with the runner's driver
// section, and persists the checkpoint with the atomic-replace discipline. A
// failed write deliberately does not interrupt the simulation: the previous
// checkpoint, if any, stays in place.
func (w *runCkptWriter) save(driver any) {
	var err error
	if w.snap, err = w.m.AppendSnapshot(w.snap[:0]); err != nil {
		return
	}
	db, err := json.Marshal(driver)
	if err != nil {
		return
	}
	c := ckpt.New(w.tag, w.m.Engine.Now()).Add(sectionMachine, w.snap).Add(sectionDriver, db)
	if w.record, err = c.AppendEncode(w.record[:0]); err != nil {
		return
	}
	_ = ckpt.AtomicWriteFile(w.rc.Path, w.record)
}

// observeCkpt installs the run's checkpoint observer on m: whenever the
// clock reaches a multiple of rc.Every it asks the runner for its driver
// section and saves a checkpoint. m is the run's own machine and is dropped
// with it, so the observer is never uninstalled.
func observeCkpt(m *machine.Machine, rc ckpt.RunConfig, tag string, driver func() any) {
	w := newRunCkptWriter(rc, m, tag)
	next := func(now uint64) uint64 { return now + rc.Every - now%rc.Every }
	m.Engine.Observe(next(m.Engine.Now()), func(now uint64) uint64 {
		w.save(driver())
		return next(now)
	})
}
