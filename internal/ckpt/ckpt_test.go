package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Checkpoint {
	return New("spec=throughput/shape=2x2x2", 4096).
		Add("machine", []byte("\x01\x80\x20\n{\"format\":\"anton2-ckpt\"}\n\x00\xff")).
		Add("driver", []byte(`{"sent":[3,2,1]}`)).
		Add("empty", nil)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := sample()
	enc, err := c.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
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
	re, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("Encode∘Decode not a fixed point:\n%s\nvs\n%s", enc, re)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same checkpoint differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flipping a bit of any byte — line, payload or newline — must fail the
	// structure, a section CRC or the commit CRC.
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corrupted byte %d (%q)", i, enc[i])
		}
	}
}

func TestDecodeRejectsDuplicateAndTrailing(t *testing.T) {
	dup := New("t", 1).Add("a", []byte("x")).Add("a", []byte("y"))
	if _, err := dup.Encode(); err == nil {
		t.Fatal("Encode accepted duplicate section names")
	}
	enc, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(append([]byte(nil), enc...), "junk\n"...)); err == nil {
		t.Fatal("Decode accepted trailing data")
	}
}

func TestRecoverTruncatedTail(t *testing.T) {
	old := New("tag", 100).Add("machine", []byte("old-state"))
	cur := New("tag", 200).Add("machine", []byte("new-state"))
	oldB, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	curB, err := cur.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A log holding a complete old group followed by a torn new group must
	// recover the old group, for every truncation point of the new one (a
	// commit line short of its newline is torn too).
	for cut := 0; cut < len(curB); cut++ {
		log := append(append([]byte(nil), oldB...), curB[:cut]...)
		got, err := Recover(log)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		if got.Cycle != 100 {
			t.Fatalf("cut %d: recovered cycle %d, want 100", cut, got.Cycle)
		}
	}
	// The complete log recovers the newest group.
	got, err := Recover(append(append([]byte(nil), oldB...), curB...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != 200 {
		t.Fatalf("recovered cycle %d, want 200 (latest group)", got.Cycle)
	}
	// Garbage before and between groups is skipped.
	log := append([]byte("garbage line\n\x00\x01\x02\n"), oldB...)
	log = append(log, "more garbage\n"...)
	log = append(log, curB...)
	got, err = Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != 200 {
		t.Fatalf("recovered cycle %d from dirty log, want 200", got.Cycle)
	}
	if _, err := Recover([]byte("no checkpoints here\n")); err == nil {
		t.Fatal("Recover invented a checkpoint from garbage")
	}
}

func TestWriteFileAtomicAndReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := WriteFile(path, sample()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	c, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if c.Cycle != 4096 {
		t.Fatalf("read cycle %d, want 4096", c.Cycle)
	}
	// Replacement leaves no temp debris.
	if err := WriteFile(path, New("spec", 8192).Add("machine", []byte("v2"))); err != nil {
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
	// A torn tail appended to the file (simulated partial append) still
	// recovers the committed checkpoint.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"format":"anton2-ckpt","version":2,"cycle":9999,"sec`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	c, err = ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile with torn tail: %v", err)
	}
	if c.Cycle != 8192 {
		t.Fatalf("torn tail: recovered cycle %d, want 8192", c.Cycle)
	}
}

func TestRunConfig(t *testing.T) {
	if (RunConfig{}).Enabled() {
		t.Fatal("zero RunConfig reports enabled")
	}
	if !(RunConfig{Path: "x", Every: 1}).Enabled() {
		t.Fatal("configured RunConfig reports disabled")
	}
	dir := t.TempDir()
	rc := RunConfig{Path: filepath.Join(dir, "r.ckpt"), Every: 16, Resume: true}
	if c := rc.Load("tag"); c != nil {
		t.Fatal("Load invented a checkpoint from a missing file")
	}
	if err := WriteFile(rc.Path, New("tag", 32).Add("m", []byte("s"))); err != nil {
		t.Fatal(err)
	}
	if c := rc.Load("other-tag"); c != nil {
		t.Fatal("Load accepted a checkpoint with a foreign tag")
	}
	c := rc.Load("tag")
	if c == nil || c.Cycle != 32 {
		t.Fatalf("Load: got %+v, want cycle 32", c)
	}
	norc := rc
	norc.Resume = false
	if c := norc.Load("tag"); c != nil {
		t.Fatal("Load resumed without Resume set")
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

// overflowHeader is a header whose section count, plus the header and commit
// lines, overflows int: v1 passed its truncation check and indexed past the
// input.
const overflowHeader = `{"format":"anton2-ckpt","version":2,"cycle":0,"sections":9223372036854775807}` + "\n"

// TestDecodeBoundsCounts: the section count and every section length are
// bounded by the input that remains before anything is indexed.
func TestDecodeBoundsCounts(t *testing.T) {
	for _, in := range []string{
		overflowHeader,
		`{"format":"anton2-ckpt","version":2,"cycle":0,"sections":1}` + "\n" +
			`{"name":"m","crc":"00000000","len":9223372036854775807}` + "\n\n",
		`{"format":"anton2-ckpt","version":2,"cycle":0,"sections":1}` + "\n" +
			`{"name":"m","crc":"00000000","len":-1}` + "\n\n",
	} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode accepted %q", in)
		}
		if _, err := Recover([]byte(in)); err == nil || !strings.Contains(err.Error(), "no complete checkpoint") {
			t.Errorf("Recover(%q) = %v, want no complete checkpoint", in, err)
		}
	}
}

// TestDecodeRejectsOtherVersions: there is no reader for a v1 file.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	v1 := `{"format":"anton2-ckpt","version":1,"tag":"t","cycle":7,"sections":1}` + "\n" +
		`{"name":"m","crc":"a282ead8","data":"AAAA"}` + "\n" +
		`{"commit":1,"crc":"00000000"}` + "\n"
	if _, err := Decode([]byte(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("Decode(v1 file) = %v, want a version error", err)
	}
	if _, err := Recover([]byte(v1)); err == nil {
		t.Error("Recover found a checkpoint in a v1 file")
	}
}

// FuzzCheckpointCodec exercises the three codec guarantees on arbitrary
// bytes: Decode never panics; anything Decode accepts re-encodes to a fixed
// point; and Recover (the truncated-tail path) never panics, accepting any
// prefix of valid data plus arbitrary garbage.
func FuzzCheckpointCodec(f *testing.F) {
	enc, err := sample().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, len(enc))
	f.Add([]byte("{}\n"), 1)
	f.Add([]byte(nil), 0)
	f.Add([]byte(`{"format":"anton2-ckpt","version":2,"cycle":0,"sections":0}`+"\n"), 3)
	f.Add([]byte(overflowHeader), 0)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		c, err := Decode(data)
		if err == nil {
			re, err := c.Encode()
			if err != nil {
				t.Fatalf("accepted input failed to re-encode: %v", err)
			}
			c2, err := Decode(re)
			if err != nil {
				t.Fatalf("re-encoded output rejected: %v", err)
			}
			re2, err := c2.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, re2) {
				t.Fatal("Encode∘Decode not a fixed point")
			}
		}
		// Recover must never panic, on the raw input or any truncation.
		_, _ = Recover(data)
		if cut >= 0 && cut < len(data) {
			_, _ = Recover(data[:cut])
		}
	})
}
