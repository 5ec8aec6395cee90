package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anton2/internal/ckpt"
)

// ArtifactFile is the on-disk JSON schema of one sweep: <dir>/<name>.json.
type ArtifactFile struct {
	Name string `json:"name"`
	// WrittenAt is wall-clock metadata (RFC 3339); excluded, like all
	// wall-time fields, from the canonical form used for determinism
	// comparisons.
	WrittenAt string   `json:"written_at,omitempty"`
	Results   []Result `json:"results"`
}

// WriteArtifacts writes the sweep's results as pretty-printed JSON under
// dir, creating it if needed, and returns the file path.
func WriteArtifacts(dir, name string, results []Result) (string, error) {
	return WriteJSON(dir, name, ArtifactFile{
		Name:      name,
		WrittenAt: time.Now().UTC().Format(time.RFC3339),
		Results:   results,
	})
}

// WriteJSON marshals v as pretty-printed JSON to <dir>/<name>.json, creating
// dir if needed, and returns the file path. It is the shared artifact writer
// for sweep results and telemetry reports. The replace is atomic (temp file +
// fsync + rename): a crash mid-write leaves either the previous artifact or
// the new one, never a truncated mixture.
func WriteJSON(dir, name string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("exp: artifact dir: %w", err)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", fmt.Errorf("exp: marshal artifacts: %w", err)
	}
	path := filepath.Join(dir, name+".json")
	if err := ckpt.AtomicWriteFile(path, append(b, '\n')); err != nil {
		return "", fmt.Errorf("exp: write artifacts: %w", err)
	}
	return path, nil
}

// MarshalCanonical renders results as JSON with every field that may vary
// between otherwise-identical runs zeroed: wall time and cache-hit flags (a
// point may be computed or served from cache depending on worker timing).
// Serial and parallel executions of the same jobs must
// produce byte-identical canonical JSON.
func MarshalCanonical(results []Result) ([]byte, error) {
	canon := make([]Result, len(results))
	copy(canon, results)
	for i := range canon {
		canon[i].WallMS = 0
		canon[i].Cached = false
	}
	return json.MarshalIndent(ArtifactFile{Name: "canonical", Results: canon}, "", "  ")
}
