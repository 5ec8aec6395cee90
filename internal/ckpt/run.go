package ckpt

import "os"

// RunConfig parameterizes checkpointing for a single run (one experiment
// point). The zero value disables checkpointing entirely; every consumer of
// a disabled config must stay on its pre-checkpoint code path (zero-alloc,
// bit-identical results).
type RunConfig struct {
	// Path is the checkpoint file for this run; empty disables
	// checkpointing.
	Path string
	// Every is the cycle interval between snapshots; zero disables
	// checkpointing even when Path is set.
	Every uint64
	// Resume restores from an existing checkpoint at Path instead of
	// starting at cycle 0. Retried attempts set it unconditionally: a
	// panicked or timed-out attempt restarts from the last snapshot.
	Resume bool
}

// Enabled reports whether this run takes checkpoints at all.
func (rc RunConfig) Enabled() bool { return rc.Path != "" && rc.Every > 0 }

// Load returns the checkpoint to resume from, or nil when the config does
// not ask for a resume or no usable checkpoint exists. A checkpoint whose
// tag does not match is ignored (it belongs to a different run that shared
// the path), never an error: resuming is an optimization, starting over is
// always correct.
func (rc RunConfig) Load(tag string) *Checkpoint {
	if !rc.Enabled() || !rc.Resume {
		return nil
	}
	c, err := ReadFile(rc.Path)
	if err != nil || c.Tag != tag {
		return nil
	}
	return c
}

// Discard removes the run's checkpoint file (after a successful finish).
// Missing files are fine.
func (rc RunConfig) Discard() {
	if rc.Path != "" {
		if err := os.Remove(rc.Path); err != nil && !os.IsNotExist(err) {
			_ = err // best-effort cleanup; the tag check protects readers
		}
	}
}

// Writer persists successive checkpoints of one run with the atomic-replace
// discipline. It is driven from the engine's checkpoint hook, which runs on
// the coordinating goroutine, so it needs no locking.
type Writer struct {
	rc  RunConfig
	err error
}

// NewWriter returns a writer for the run config.
func NewWriter(rc RunConfig) *Writer { return &Writer{rc: rc} }

// Save writes the checkpoint. The first error is sticky and returned from
// every later call: a run whose checkpoints stopped persisting should surface
// that once at the end rather than fail mid-flight (the simulation itself is
// unaffected).
func (w *Writer) Save(c *Checkpoint) error {
	if w.err != nil {
		return w.err
	}
	w.err = WriteFile(w.rc.Path, c)
	return w.err
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }
