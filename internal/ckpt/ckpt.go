// Package ckpt defines the checkpoint container format: a versioned,
// strictly-validated encoding of one simulation snapshot, in the spirit of
// internal/trace's canonical strict codec. A checkpoint is a *frame group*: a
// JSON header line naming the format version, run tag, and cycle; per named
// section a JSON line (name, CRC-32C, length) followed by that many raw
// payload bytes and a newline; and a JSON commit line whose CRC covers every
// preceding byte of the group. The payloads themselves are produced by the
// layers that own the state (the machine's binary snapshot record, the
// driver's progress); this package only guarantees that what was written is
// what is read back.
//
// Format v2 guarantees:
//   - Encoding is deterministic: the same Checkpoint always yields the same
//     bytes, and Encode∘Decode is a fixed point.
//   - Decode validates structure, per-section CRCs, and the commit CRC, and
//     never panics on arbitrary input: the section count and every section
//     length are bounded by the input that remains before anything is indexed.
//   - Recover scans arbitrary bytes for complete frame groups and returns
//     the last valid one — a torn or truncated tail (the crash case) falls
//     back to the most recent complete checkpoint instead of failing.
//   - WriteFile is torn-write-safe: temp file + fsync + rename, so a crash
//     mid-write leaves either the old checkpoint or the new one, never a
//     mixture.
//
// There is one format and no reader for older ones: a file of any other
// version fails the version check like any other unusable file, and the run
// it belonged to starts over.
package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Format and Version identify checkpoint files produced by this package.
// Version bumps whenever the frame schema changes incompatibly; version 1
// carried its sections base64-encoded inside the section lines.
const (
	Format  = "anton2-ckpt"
	Version = 2
)

// castagnoli is the CRC-32C table shared by section and commit checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumHex returns the CRC-32C of b as 8 lowercase hex digits: the
// checksum the checkpoint frames use, exported so sibling persistence layers
// (the serve store's artifact sidecars) share one definition.
func ChecksumHex(b []byte) string { return fmt.Sprintf("%08x", crc32.Checksum(b, castagnoli)) }

// Header is the first line of a frame group.
type Header struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Tag identifies the run that wrote the checkpoint (conventionally the
	// experiment spec canonical string); restore paths reject checkpoints
	// whose tag does not match the run they are resuming.
	Tag string `json:"tag,omitempty"`
	// Cycle is the simulation clock at the snapshot boundary.
	Cycle uint64 `json:"cycle"`
	// Sections is the number of sections that follow.
	Sections int `json:"sections"`
}

// sectionLine announces one named payload: Len raw bytes and a newline follow
// it. Each payload has its own CRC, so a flipped bit in a multi-megabyte
// machine snapshot is pinned to the section it corrupts.
type sectionLine struct {
	Name string `json:"name"`
	CRC  string `json:"crc"`
	Len  int    `json:"len"`
}

// commitLine terminates a frame group. Its CRC covers every preceding byte of
// the group (header, section lines and payloads, newlines included): a group
// without a matching commit line never existed.
type commitLine struct {
	Commit int    `json:"commit"`
	CRC    string `json:"crc"`
}

// Section is one named opaque payload of a checkpoint.
type Section struct {
	Name string
	Data []byte
}

// Checkpoint is a decoded frame group: the snapshot identity plus its
// sections in written order.
type Checkpoint struct {
	Tag      string
	Cycle    uint64
	Sections []Section
}

// New starts a checkpoint for the given run tag and cycle.
func New(tag string, cycle uint64) *Checkpoint {
	return &Checkpoint{Tag: tag, Cycle: cycle}
}

// Add appends a named section. The checkpoint keeps data, not a copy.
func (c *Checkpoint) Add(name string, data []byte) *Checkpoint {
	c.Sections = append(c.Sections, Section{Name: name, Data: data})
	return c
}

// Section returns the named section's payload.
func (c *Checkpoint) Section(name string) ([]byte, bool) {
	for _, s := range c.Sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

func (c *Checkpoint) validate() error {
	seen := make(map[string]bool, len(c.Sections))
	for i, s := range c.Sections {
		if s.Name == "" {
			return fmt.Errorf("ckpt: section %d: empty name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("ckpt: duplicate section %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Encode serializes the checkpoint to its canonical frame group. Encoding a
// valid checkpoint is deterministic: the same Checkpoint always yields the
// same bytes.
func (c *Checkpoint) Encode() ([]byte, error) { return c.AppendEncode(nil) }

// AppendEncode appends the checkpoint's frame group to b, for writers that
// keep one buffer across the checkpoints of a run.
func (c *Checkpoint) AppendEncode(b []byte) ([]byte, error) {
	if err := c.validate(); err != nil {
		return b, err
	}
	start := len(b)
	line := func(v any) {
		l, _ := json.Marshal(v) // structs of strings and integers: cannot fail
		b = append(append(b, l...), '\n')
	}
	line(Header{Format: Format, Version: Version, Tag: c.Tag, Cycle: c.Cycle, Sections: len(c.Sections)})
	for _, s := range c.Sections {
		line(sectionLine{Name: s.Name, CRC: ChecksumHex(s.Data), Len: len(s.Data)})
		b = append(append(b, s.Data...), '\n')
	}
	line(commitLine{Commit: len(c.Sections), CRC: ChecksumHex(b[start:])})
	return b, nil
}

// decodeLine strictly unmarshals the JSON line that starts data — an object,
// no unknown fields, nothing after it before the newline — and returns the
// number of bytes it occupies, newline included. A line the input ends
// inside is an error: that is what a torn write leaves.
func decodeLine(data []byte, v any) (int, error) {
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		return 0, errors.New("truncated line")
	}
	if end == 0 || data[0] != '{' {
		return 0, errors.New("not a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(data[:end]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return 0, err
	}
	if dec.More() {
		return 0, errors.New("trailing data after record")
	}
	return end + 1, nil
}

// decodeGroup strictly decodes the frame group that starts data and returns
// the checkpoint and the number of bytes the group occupies. Section payloads
// alias data.
func decodeGroup(data []byte) (*Checkpoint, int, error) {
	var h Header
	pos, err := decodeLine(data, &h)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: header: %w", err)
	}
	if h.Format != Format {
		return nil, 0, fmt.Errorf("ckpt: format %q, want %q", h.Format, Format)
	}
	if h.Version != Version {
		return nil, 0, fmt.Errorf("ckpt: version %d, want %d", h.Version, Version)
	}
	// Every section occupies at least its line's and its payload's newline.
	if h.Sections < 0 || h.Sections > (len(data)-pos)/2 {
		return nil, 0, fmt.Errorf("ckpt: %d sections in %d bytes", h.Sections, len(data)-pos)
	}
	c := &Checkpoint{Tag: h.Tag, Cycle: h.Cycle}
	for i := 0; i < h.Sections; i++ {
		var s sectionLine
		n, err := decodeLine(data[pos:], &s)
		if err != nil {
			return nil, 0, fmt.Errorf("ckpt: section %d: %w", i, err)
		}
		pos += n
		if s.Name == "" {
			return nil, 0, fmt.Errorf("ckpt: section %d: empty name", i)
		}
		if s.Len < 0 || s.Len >= len(data)-pos || data[pos+s.Len] != '\n' {
			return nil, 0, fmt.Errorf("ckpt: section %q: truncated: %d payload bytes in %d", s.Name, s.Len, len(data)-pos)
		}
		payload := data[pos : pos+s.Len : pos+s.Len]
		if got := ChecksumHex(payload); got != s.CRC {
			return nil, 0, fmt.Errorf("ckpt: section %q: crc %s, want %s", s.Name, got, s.CRC)
		}
		c.Sections = append(c.Sections, Section{Name: s.Name, Data: payload})
		pos += s.Len + 1
	}
	var cm commitLine
	n, err := decodeLine(data[pos:], &cm)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: commit: %w", err)
	}
	if cm.Commit != h.Sections {
		return nil, 0, fmt.Errorf("ckpt: commit count %d, want %d", cm.Commit, h.Sections)
	}
	if want := ChecksumHex(data[:pos]); cm.CRC != want {
		return nil, 0, fmt.Errorf("ckpt: commit crc %s, want %s", cm.CRC, want)
	}
	if err := c.validate(); err != nil {
		return nil, 0, err
	}
	return c, pos + n, nil
}

// Decode parses and validates exactly one checkpoint. It never panics on
// arbitrary input, and for any input x accepted by Decode,
// Encode(Decode(x)) is a fixed point of the round trip. The sections of the
// result alias data.
func Decode(data []byte) (*Checkpoint, error) {
	c, used, err := decodeGroup(data)
	if err != nil {
		return nil, err
	}
	if used != len(data) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after commit", len(data)-used)
	}
	return c, nil
}

// Recover scans the input for complete frame groups and returns the last
// valid one — the newest checkpoint that was fully committed before a crash.
// A group starts at the start of the input or after a newline; garbage, torn
// groups, and a truncated tail are skipped; Recover never panics. It fails
// only when no complete checkpoint exists.
func Recover(data []byte) (*Checkpoint, error) {
	var last *Checkpoint
	for pos := 0; pos < len(data); {
		if c, used, err := decodeGroup(data[pos:]); err == nil {
			last = c
			pos += used
			continue
		}
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break
		}
		pos += nl + 1
	}
	if last == nil {
		return nil, errors.New("ckpt: no complete checkpoint in input")
	}
	return last, nil
}

// WriteFile atomically replaces path with the encoded checkpoint.
func WriteFile(path string, c *Checkpoint) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	return AtomicWriteFile(path, data)
}

// tempSuffix is what AtomicWriteFile's temp files carry between the target's
// base name and os.CreateTemp's random digits.
const tempSuffix = ".tmp"

// AtomicWriteFile is the torn-write-safe replace, for checkpoints and for
// other writers of crash-adjacent files (artifacts, WAL records): the bytes
// are written to a temp file in the same directory, fsynced, and renamed over
// path, then the directory entry is synced. A crash at any point leaves
// either the previous file or the new one.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: mkdir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempSuffix+"*")
	if err != nil {
		return fmt.Errorf("ckpt: temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	// CreateTemp files are 0600; match the conventional artifact mode.
	_ = tmp.Chmod(0o644)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: rename: %w", err)
	}
	// Persist the directory entry too; best-effort on filesystems that
	// reject directory fsync.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile loads the newest complete checkpoint from path, tolerating a torn
// tail. A missing file returns os.ErrNotExist.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Recover(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return c, nil
}
