package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"anton2/internal/ckpt"
	"anton2/internal/core"
)

// Store is the persistent tier of the two-level result cache: canonical
// sweep artifacts content-addressed by request spec hash, plus a snapshot of
// the analytic load-table cache and a write-ahead log of admitted-but-
// unfinished runs, all under one directory:
//
//	<dir>/artifacts/<hash>.art    canonical artifact bytes (exp.MarshalCanonical) + ckpt.Seal
//	<dir>/quarantine/<hash>.art   artifacts that failed their seal
//	<dir>/wal/<hash>.json         original Request bodies of unfinished runs
//	<dir>/loads.json              load-table snapshot (core.SnapshotLoads)
//
// Artifacts are immutable once written (the same spec always produces the
// same bytes, a property the bit-identity tests pin), so a Store never
// invalidates; deleting the directory is the only eviction. Writes go
// through a same-directory temp file + fsync + rename, so a crash mid-write
// never leaves a torn artifact to be served later. Reads check the seal, the
// CRC-32C checkpoints end with too: an artifact whose bytes do not match (bit
// rot, truncation by an external actor, a partially copied cache directory)
// is moved to quarantine/ and reported as a miss, so the server transparently
// re-simulates it — determinism makes the replacement byte-identical.
type Store struct {
	dir string

	// Logf, when non-nil, receives operational log lines (quarantine
	// events, WAL cleanup failures). NewServer points it at Config.Logf.
	Logf func(format string, args ...any)

	// Quarantined counts artifacts moved aside after failing verification.
	Quarantined atomic.Uint64

	// loadsMu serializes load-snapshot writes (artifact writes need no
	// lock: distinct names, atomic rename, identical bytes on collision) and
	// guards loadsSaved, the number of tables the last one wrote.
	loadsMu    sync.Mutex
	loadsSaved int
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store dir must not be empty")
	}
	for _, sub := range []string{"artifacts", "quarantine", "wal"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func validID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) artifactPath(id string) (string, error) {
	if !validID(id) {
		return "", fmt.Errorf("serve: bad artifact id %q", id)
	}
	return filepath.Join(s.dir, "artifacts", id+".art"), nil
}

// LoadArtifact returns the cached artifact bytes for id, with ok=false when
// the store has none. A file that fails its seal is quarantined and reported
// as a miss so the caller re-simulates.
func (s *Store) LoadArtifact(id string) ([]byte, bool, error) {
	path, err := s.artifactPath(id)
	if err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("serve: load artifact: %w", err)
	}
	art, err := ckpt.Unseal(b)
	if err != nil {
		// Out of the serving path with it, so the spec is re-simulated.
		if err := os.Rename(path, filepath.Join(s.dir, "quarantine", filepath.Base(path))); err != nil {
			s.logf("serve: quarantine %s: %v", id, err)
		}
		s.Quarantined.Add(1)
		s.logf("serve: quarantined artifact %s: %v", id, err)
		return nil, false, nil
	}
	return art, true, nil
}

// SaveArtifact persists the artifact bytes for id atomically, sealed so that
// LoadArtifact can check them on every read.
func (s *Store) SaveArtifact(id string, b []byte) error {
	path, err := s.artifactPath(id)
	if err != nil {
		return err
	}
	// b is the slice the run serves: clipped, it has no spare capacity for
	// Seal's append to write into, so the seal goes on a copy.
	if err := ckpt.AtomicWriteFile(path, ckpt.Seal(slices.Clip(b))); err != nil {
		return fmt.Errorf("serve: write artifact %s: %w", id, err)
	}
	return nil
}

// walPath returns the write-ahead-log entry path for a run id.
func (s *Store) walPath(id string) (string, error) {
	if !validID(id) {
		return "", fmt.Errorf("serve: bad wal id %q", id)
	}
	return filepath.Join(s.dir, "wal", id+".json"), nil
}

// SaveWAL durably records an admitted run's original request body so a
// restarted server can re-admit and finish it. Written before the run
// executes; removed by RemoveWAL only once the artifact is persisted.
func (s *Store) SaveWAL(id string, body []byte) error {
	path, err := s.walPath(id)
	if err != nil {
		return err
	}
	if err := ckpt.AtomicWriteFile(path, body); err != nil {
		return fmt.Errorf("serve: write wal %s: %w", id, err)
	}
	return nil
}

// RemoveWAL drops a run's write-ahead-log entry after its artifact is safely
// on disk (or the entry proved unusable). Missing entries are fine: a run
// admitted before the WAL existed, or already cleaned up.
func (s *Store) RemoveWAL(id string) {
	path, err := s.walPath(id)
	if err != nil {
		return
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.logf("serve: remove wal %s: %v", id, err)
	}
}

// walEntry is one unfinished run recorded in the write-ahead log.
type walEntry struct {
	ID   string
	Body []byte
}

// listWAL returns every write-ahead-log entry, sorted by id for a
// deterministic re-admission order.
func (s *Store) listWAL() ([]walEntry, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "wal"))
	if err != nil {
		return nil, fmt.Errorf("serve: list wal: %w", err)
	}
	var out []walEntry
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".json")
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || !validID(id) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, "wal", e.Name()))
		if err != nil {
			s.logf("serve: read wal %s: %v", id, err)
			continue
		}
		out = append(out, walEntry{ID: id, Body: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// SaveLoads snapshots the process-wide analytic load-table cache to disk.
// Called after each completed run. The cache only ever grows, so when it holds
// as many completed tables as the last snapshot wrote there is nothing new
// and nothing is marshalled or written — the steady state: most runs reuse
// tables. A table still being computed is not counted; the run that finds it
// finished writes it.
func (s *Store) SaveLoads() error {
	s.loadsMu.Lock()
	defer s.loadsMu.Unlock()
	if core.CachedLoadsLen() == s.loadsSaved {
		return nil
	}
	snap, err := core.SnapshotLoads()
	if err != nil {
		return err
	}
	b, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: marshal loads snapshot: %w", err)
	}
	if err := ckpt.AtomicWriteFile(filepath.Join(s.dir, "loads.json"), b); err != nil {
		return fmt.Errorf("serve: write loads snapshot: %w", err)
	}
	s.loadsSaved = len(snap)
	return nil
}

// restoreLoads seeds the process-wide load-table cache from disk, returning
// how many tables were restored (0 with no error when no snapshot exists).
func (s *Store) restoreLoads() (int, error) {
	b, err := os.ReadFile(filepath.Join(s.dir, "loads.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: read loads snapshot: %w", err)
	}
	snap := map[string]json.RawMessage{}
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, fmt.Errorf("serve: decode loads snapshot: %w", err)
	}
	return core.RestoreLoads(snap)
}
