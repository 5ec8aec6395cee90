package ckpt

import (
	"os"
	"path/filepath"
	"strings"
)

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
}

// Enabled reports whether this run takes checkpoints at all.
func (rc RunConfig) Enabled() bool { return rc.Path != "" && rc.Every > 0 }

// Load returns the checkpoint an enabled run resumes from — whatever a
// previous invocation left at Path — or nil when checkpointing is off or no
// usable checkpoint exists. A checkpoint whose tag does not match is ignored
// (it belongs to a different run that shared the path), never an error:
// resuming is an optimization, starting over is always correct.
func (rc RunConfig) Load(tag string) *Checkpoint {
	if !rc.Enabled() {
		return nil
	}
	c, err := ReadFile(rc.Path)
	if err != nil || c.Tag != tag {
		return nil
	}
	return c
}

// Discard removes the run's checkpoint file (after a successful finish) and
// any orphaned temp files beside it. Missing files are fine, and a file that
// cannot be removed stays: the tag check protects readers.
func (rc RunConfig) Discard() {
	if rc.Path != "" {
		_ = os.Remove(rc.Path)
		rc.RemoveOrphans()
	}
}

// RemoveOrphans removes the temp files a writer of Path left behind when it
// was killed between creating one and renaming it over Path: nothing else
// ever would, and each is the size of a checkpoint. A run calls it before its
// first write; Path belongs to one run at a time, so no live writer's temp
// file is beside it then.
func (rc RunConfig) RemoveOrphans() {
	if rc.Path == "" {
		return
	}
	dir, prefix := filepath.Dir(rc.Path), filepath.Base(rc.Path)+tempSuffix
	ents, _ := os.ReadDir(dir) // best-effort, like the removals
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), prefix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
