package ckpt

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anton2/internal/wire"
)

func sample() *Checkpoint {
	return New("spec=throughput/shape=2x2x2", 4096).
		Add("machine", []byte("\x01\x80\x20\n{\"format\":\"anton2-ckpt\"}\n\x00\xff")).
		Add("driver", []byte(`{"sent":[3,2,1]}`)).
		Add("empty", nil)
}

func mustEncode(t testing.TB, c *Checkpoint) []byte {
	t.Helper()
	b, err := c.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b
}

// uvarint and str append one value each through an encoding codec, for
// hand-built records.
func uvarint(b []byte, v uint64) []byte {
	c := wire.NewEncoder(b)
	c.Uvarint(&v)
	return c.Buf()
}

func str(b []byte, s string) []byte {
	c := wire.NewEncoder(b)
	c.String(&s)
	return c.Buf()
}

// head is an unsealed record of the given version up to its section count.
func head(version uint64) []byte {
	b := uvarint(str(nil, Format), version)
	return uvarint(str(b, "t"), 7)
}

// v2Group is a well-formed frame group of the retired format v2: JSON
// header, section and commit lines, a CRC per section and one over the group.
func v2Group() []byte {
	crc := func(b string) string { return fmt.Sprintf("%08x", crc32.Checksum([]byte(b), castagnoli)) }
	g := `{"format":"anton2-ckpt","version":2,"tag":"t","cycle":7,"sections":1}` + "\n" +
		`{"name":"m","crc":"` + crc("{}") + `","len":2}` + "\n{}\n"
	return []byte(g + `{"commit":1,"crc":"` + crc(g) + `"}` + "\n")
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sample()
	enc := mustEncode(t, c)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.Tag != c.Tag || dec.Cycle != c.Cycle || len(dec.Sections) != len(c.Sections) {
		t.Fatalf("round trip mismatch: %+v vs %+v", dec, c)
	}
	for i := range c.Sections {
		if dec.Sections[i].Name != c.Sections[i].Name ||
			!bytes.Equal(dec.Sections[i].Data, c.Sections[i].Data) {
			t.Fatalf("section %d differs: %+v vs %+v", i, dec.Sections[i], c.Sections[i])
		}
	}
	if re := mustEncode(t, dec); !bytes.Equal(enc, re) {
		t.Fatalf("Encode∘Decode not a fixed point:\n%q\nvs\n%q", enc, re)
	}
	// AppendEncode seals only what it appends.
	app, err := c.AppendEncode([]byte("prefix"))
	if err != nil || string(app) != "prefix"+string(enc) {
		t.Fatalf("AppendEncode = %q, %v; want prefix then %q", app, err, enc)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	if !bytes.Equal(mustEncode(t, sample()), mustEncode(t, sample())) {
		t.Fatal("two encodings of the same checkpoint differ")
	}
}

// TestDecodeRejectsCorruption: flipping a bit of any byte, or cutting the
// record anywhere, fails the seal.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := mustEncode(t, sample())
	for i := 0; i < len(enc); i++ {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corrupted byte %d (%q)", i, enc[i])
		}
		if _, err := Decode(enc[:i]); err == nil {
			t.Fatalf("Decode accepted the record cut to %d bytes", i)
		}
	}
}

func TestDecodeRejectsDuplicateAndTrailing(t *testing.T) {
	dup := New("t", 1).Add("a", []byte("x")).Add("a", []byte("y"))
	if _, err := dup.Encode(); err == nil {
		t.Fatal("Encode accepted duplicate section names")
	}
	enc := mustEncode(t, sample())
	body, err := Unseal(enc)
	if err != nil {
		t.Fatal(err)
	}
	section := func(b []byte, name string) []byte { return str(str(b, name), "x") }
	for name, in := range map[string][]byte{
		"junk after the seal":   append(bytes.Clone(enc), "junk\n"...),
		"junk inside the seal":  Seal(append(bytes.Clone(body), 0)),
		"duplicate name":        Seal(section(section(uvarint(head(version), 2), "a"), "a")),
		"empty name":            Seal(section(uvarint(head(version), 1), "")),
		"fewer sections than n": Seal(section(uvarint(head(version), 2), "a")),
	} {
		if _, err := Decode(in); err == nil {
			t.Errorf("Decode accepted a record with %s", name)
		}
	}
}

func TestWriteFileAtomicAndReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := AtomicWriteFile(path, mustEncode(t, sample())); err != nil {
		t.Fatalf("AtomicWriteFile: %v", err)
	}
	c, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if c.Cycle != 4096 {
		t.Fatalf("read cycle %d, want 4096", c.Cycle)
	}
	// Replacement leaves no temp debris.
	if err := AtomicWriteFile(path, mustEncode(t, New("spec", 8192).Add("machine", []byte("v2")))); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	c, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycle != 8192 {
		t.Fatalf("read cycle %d after replace, want 8192", c.Cycle)
	}
	// A file holds one whole checkpoint or none: anything appended to it
	// makes it unusable rather than half-read.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if c, err := ReadFile(path); err == nil {
		t.Fatalf("ReadFile accepted a file with bytes past its seal: %+v", c)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("ReadFile of a missing file = %v, want ErrNotExist", err)
	}
}

func TestRunConfig(t *testing.T) {
	// A path alone, or an interval alone, does not enable checkpointing.
	for _, rc := range []RunConfig{{}, {Path: "x"}, {Every: 1}} {
		if rc.Enabled() {
			t.Fatalf("%+v reports enabled", rc)
		}
	}
	if !(RunConfig{Path: "x", Every: 1}).Enabled() {
		t.Fatal("configured RunConfig reports disabled")
	}
	dir := t.TempDir()
	rc := RunConfig{Path: filepath.Join(dir, "r.ckpt"), Every: 16}
	if c := rc.Load("tag"); c != nil {
		t.Fatal("Load invented a checkpoint from a missing file")
	}
	if err := AtomicWriteFile(rc.Path, mustEncode(t, New("tag", 32).Add("m", []byte("s")))); err != nil {
		t.Fatal(err)
	}
	if c := rc.Load("other-tag"); c != nil {
		t.Fatal("Load accepted a checkpoint with a foreign tag")
	}
	c := rc.Load("tag")
	if c == nil || c.Cycle != 32 {
		t.Fatalf("Load: got %+v, want cycle 32", c)
	}
	if c := (RunConfig{Path: rc.Path}).Load("tag"); c != nil {
		t.Fatal("a disabled RunConfig loaded a checkpoint")
	}
	// A writer killed between creating its temp file and renaming it leaves
	// the temp file behind; Discard takes those with it, and nothing else.
	orphan, other := rc.Path+".tmp123456", filepath.Join(dir, "other.ckpt.tmp1")
	for _, p := range []string{orphan, other} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rc.Discard()
	for _, p := range []string{rc.Path, orphan} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("Discard left %s", filepath.Base(p))
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("Discard removed another run's temp file: %v", err)
	}
	rc.Discard() // second discard is a no-op
}

// TestDecodeBoundsCounts: the section count and every section length are
// bounded by the input that remains before anything is indexed, so sealed
// records that claim more than they hold fail instead of allocating or
// indexing past the input.
func TestDecodeBoundsCounts(t *testing.T) {
	oneSection := str(uvarint(head(version), 1), "m")
	for name, body := range map[string][]byte{
		"section count overflows": uvarint(head(version), math.MaxUint64),
		"section count too large": uvarint(head(version), 1<<40),
		"length overflows":        uvarint(bytes.Clone(oneSection), math.MaxUint64),
		"length past the end":     uvarint(bytes.Clone(oneSection), math.MaxInt64),
	} {
		if _, err := Decode(Seal(body)); err == nil {
			t.Errorf("Decode accepted a record whose %s", name)
		}
	}
}

// TestDecodeRejectsOtherVersions: there is no reader for another version,
// whether it is spelled as a sealed record or as a retired v2 frame group.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	v2Record := Seal(uvarint(head(2), 0))
	if _, err := Decode(v2Record); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("Decode(record claiming v2) = %v, want a version error", err)
	}
	if c, err := Decode(v2Group()); err == nil {
		t.Errorf("Decode accepted a v2 frame group: %+v", c)
	}
}

// FuzzCheckpointCodec exercises the codec guarantees on arbitrary bytes:
// Decode never panics, and anything it accepts re-encodes to the same bytes.
// Random bytes rarely pass the seal, so each input is also sealed and
// decoded, which drives the structural decoder behind it.
func FuzzCheckpointCodec(f *testing.F) {
	enc := mustEncode(f, sample())
	body, err := Unseal(enc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(bytes.Clone(body))
	f.Add([]byte(nil))
	f.Add(uvarint(head(version), math.MaxUint64))
	f.Add(v2Group())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, Seal(bytes.Clone(data))} {
			c, err := Decode(in)
			if err != nil {
				continue
			}
			re, err := c.Encode()
			if err != nil {
				t.Fatalf("accepted input failed to re-encode: %v", err)
			}
			if !bytes.Equal(re, in) {
				t.Fatalf("Encode∘Decode not a fixed point:\n%q\nvs\n%q", in, re)
			}
		}
	})
}
