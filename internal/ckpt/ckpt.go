// Package ckpt defines the checkpoint format: a versioned, strictly-validated
// encoding of one simulation snapshot, in the spirit of internal/trace's
// canonical strict codec. A checkpoint is one internal/wire record — format
// name, version, run tag, cycle, then each section as a length-prefixed name
// and payload — followed by the seal, a CRC-32C of every byte before it. The
// payloads themselves are produced by the layers that own the state (the
// machine's binary snapshot record, the driver's progress); this package only
// guarantees that what was written is what is read back.
//
// Format v3 guarantees:
//   - Encoding is deterministic: the same Checkpoint always yields the same
//     bytes, and Encode∘Decode is a fixed point.
//   - Decode checks the seal before it parses, then parses strictly and never
//     panics on arbitrary input: the section count and every length are
//     bounded by the input that remains before anything is indexed.
//   - AtomicWriteFile is torn-write-safe: temp file + fsync + rename, so a
//     crash mid-write leaves either the old file or the new one, never a
//     mixture. A file therefore holds one whole checkpoint or none.
//
// There is one format and no reader for older ones: a file of any other
// version fails the seal or the version check like any other unusable file,
// and the run it belonged to starts over.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"anton2/internal/wire"
)

// Format and Version identify checkpoint files produced by this package.
// Version bumps whenever the record layout changes incompatibly; version 2
// framed its sections in JSON lines with a CRC each.
const (
	Format  = "anton2-ckpt"
	version = 3
)

// castagnoli is the CRC-32C table behind the seal.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealLen is the size of the CRC-32C a sealed record ends with.
const sealLen = 4

// Seal appends the CRC-32C of b to b: the one integrity check of every file a
// process reads back after a crash (checkpoints, the serve store's
// artifacts). Like append, it may write into b's spare capacity.
func Seal(b []byte) []byte { return sealFrom(b, 0) }

// sealFrom appends the CRC-32C of b[start:] to b.
func sealFrom(b []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli))
}

// Unseal checks the CRC-32C that Seal appended and returns the bytes it
// covers; the result aliases b.
func Unseal(b []byte) ([]byte, error) {
	n := len(b) - sealLen
	if n < 0 {
		return nil, fmt.Errorf("ckpt: %d bytes, too short for a seal", len(b))
	}
	if got, want := crc32.Checksum(b[:n], castagnoli), binary.LittleEndian.Uint32(b[n:]); got != want {
		return nil, fmt.Errorf("ckpt: crc %08x, want %08x", got, want)
	}
	return b[:n:n], nil
}

// Section is one named opaque payload of a checkpoint.
type Section struct {
	Name string
	Data []byte
}

// Checkpoint is a decoded record: the snapshot identity plus its sections in
// written order.
type Checkpoint struct {
	// Tag identifies the run that wrote the checkpoint (conventionally the
	// experiment spec canonical string); RunConfig.Load ignores checkpoints
	// whose tag does not match the run they would resume.
	Tag string
	// Cycle is the simulation clock at the snapshot boundary.
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

// appendString appends s behind its length, as wire.AppendBytes would.
func appendString(b []byte, s string) []byte {
	return append(wire.AppendUvarint(b, uint64(len(s))), s...)
}

// Encode serializes the checkpoint to its canonical sealed record. Encoding
// a valid checkpoint is deterministic: the same Checkpoint always yields the
// same bytes.
func (c *Checkpoint) Encode() ([]byte, error) { return c.AppendEncode(nil) }

// AppendEncode appends the checkpoint's sealed record to b, for writers that
// keep one buffer across the checkpoints of a run.
func (c *Checkpoint) AppendEncode(b []byte) ([]byte, error) {
	if err := c.validate(); err != nil {
		return b, err
	}
	start := len(b)
	b = appendString(b, Format)
	b = wire.AppendUvarint(b, version)
	b = appendString(b, c.Tag)
	b = wire.AppendUvarint(b, c.Cycle)
	b = wire.AppendUvarint(b, uint64(len(c.Sections)))
	for _, s := range c.Sections {
		b = wire.AppendBytes(appendString(b, s.Name), s.Data)
	}
	return sealFrom(b, start), nil
}

// Decode parses and validates exactly one checkpoint. It never panics on
// arbitrary input, and for any input x accepted by Decode, Encode(Decode(x))
// is x. The sections of the result alias data.
func Decode(data []byte) (*Checkpoint, error) {
	body, err := Unseal(data)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(body)
	if f := r.Bytes(); string(f) != Format {
		return nil, fmt.Errorf("ckpt: format %q, want %q", f, Format)
	}
	if v := r.Uvarint(); v != version {
		return nil, fmt.Errorf("ckpt: version %d, want %d", v, version)
	}
	c := &Checkpoint{Tag: string(r.Bytes()), Cycle: r.Uvarint()}
	// Every section spells at least its name's and its payload's length.
	n := r.Count(2)
	c.Sections = make([]Section, 0, n)
	for i := 0; i < n; i++ {
		name := string(r.Bytes())
		c.Sections = append(c.Sections, Section{Name: name, Data: r.Bytes()})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after the last section", r.Len())
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
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

// ReadFile decodes the checkpoint at path. A missing file returns
// os.ErrNotExist.
func ReadFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
