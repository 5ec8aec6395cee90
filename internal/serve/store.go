package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
//	<dir>/artifacts/<hash>.json   canonical artifact bytes (exp.MarshalCanonical)
//	<dir>/artifacts/<hash>.sum    CRC-32C sidecar verified on every read
//	<dir>/quarantine/             artifacts that failed verification
//	<dir>/wal/<hash>.json         original Request bodies of unfinished runs
//	<dir>/loads.json              load-table snapshot (core.SnapshotLoads)
//
// Artifacts are immutable once written (the same spec always produces the
// same bytes, a property the bit-identity tests pin), so a Store never
// invalidates; deleting the directory is the only eviction. Writes go
// through a same-directory temp file + fsync + rename, so a crash mid-write
// never leaves a torn artifact to be served later. Reads verify the CRC-32C
// sidecar: an artifact whose bytes do not match (bit rot, truncation by an
// external actor, a partially copied cache directory) is moved to
// quarantine/ and reported as a miss, so the server transparently
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
	for _, sub := range []string{"artifacts", "wal"} {
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
	return filepath.Join(s.dir, "artifacts", id+".json"), nil
}

// sumPath is the CRC-32C sidecar path next to an artifact.
func (s *Store) sumPath(id string) string {
	return filepath.Join(s.dir, "artifacts", id+".sum")
}

// LoadArtifact returns the cached artifact bytes for id, with ok=false when
// the store has none. The bytes are verified against the CRC-32C sidecar
// written by SaveArtifact; on mismatch the artifact is quarantined and
// reported as a miss so the caller re-simulates. A pre-sidecar artifact
// (older store layout) is structurally checked and its sidecar backfilled.
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
	got := ckpt.ChecksumHex(b)
	want, serr := os.ReadFile(s.sumPath(id))
	switch {
	case serr == nil:
		if strings.TrimSpace(string(want)) != got {
			s.quarantine(id, "checksum mismatch")
			return nil, false, nil
		}
	case errors.Is(serr, fs.ErrNotExist):
		// Legacy artifact with no sidecar: the strongest available check
		// is structural. A torn or truncated artifact fails it; a passing
		// one gets its sidecar backfilled so future reads verify fully.
		if !json.Valid(b) {
			s.quarantine(id, "invalid JSON (no checksum sidecar)")
			return nil, false, nil
		}
		if err := ckpt.AtomicWriteFile(s.sumPath(id), []byte(got+"\n")); err != nil {
			s.logf("serve: backfill checksum for %s: %v", id, err)
		}
	default:
		return nil, false, fmt.Errorf("serve: load artifact checksum: %w", serr)
	}
	return b, true, nil
}

// quarantine moves a failed artifact (and its sidecar, if any) out of the
// serving path so the next submission re-simulates the spec.
func (s *Store) quarantine(id, reason string) {
	qdir := filepath.Join(s.dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.logf("serve: quarantine %s: %v", id, err)
		return
	}
	for _, ext := range []string{".json", ".sum"} {
		src := filepath.Join(s.dir, "artifacts", id+ext)
		if err := os.Rename(src, filepath.Join(qdir, id+ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.logf("serve: quarantine %s: %v", id, err)
		}
	}
	s.Quarantined.Add(1)
	s.logf("serve: quarantined artifact %s: %s", id, reason)
}

// SaveArtifact persists the artifact bytes for id atomically, with a
// CRC-32C sidecar that LoadArtifact verifies on every read. The artifact is
// durable before the sidecar is written, so a crash between the two writes
// at worst leaves a legacy-layout artifact that the next read backfills.
func (s *Store) SaveArtifact(id string, b []byte) error {
	path, err := s.artifactPath(id)
	if err != nil {
		return err
	}
	if err := ckpt.AtomicWriteFile(path, b); err != nil {
		return fmt.Errorf("serve: write artifact %s: %w", id, err)
	}
	if err := ckpt.AtomicWriteFile(s.sumPath(id), []byte(ckpt.ChecksumHex(b)+"\n")); err != nil {
		return fmt.Errorf("serve: write artifact checksum %s: %w", id, err)
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

// WALEntry is one unfinished run recorded in the write-ahead log.
type WALEntry struct {
	ID   string
	Body []byte
}

// ListWAL returns every write-ahead-log entry, sorted by id for a
// deterministic re-admission order.
func (s *Store) ListWAL() ([]WALEntry, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "wal"))
	if err != nil {
		return nil, fmt.Errorf("serve: list wal: %w", err)
	}
	var out []WALEntry
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
		out = append(out, WALEntry{ID: id, Body: b})
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

// RestoreLoads seeds the process-wide load-table cache from disk, returning
// how many tables were restored (0 with no error when no snapshot exists).
func (s *Store) RestoreLoads() (int, error) {
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
