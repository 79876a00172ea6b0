package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rarsim/internal/isa"
)

func TestTraceRoundTrip(t *testing.T) {
	b, err := ByName("gems")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b.Name, New(b, 7), n); err != nil {
		t.Fatal(err)
	}
	fs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Name() != "gems" || fs.Len() != n {
		t.Fatalf("name=%q len=%d", fs.Name(), fs.Len())
	}
	// Replayed instructions must be byte-identical to a fresh generation.
	ref := New(b, 7)
	var want, got isa.Inst
	for i := 0; i < n; i++ {
		ref.Next(&want)
		fs.Next(&got)
		if want != got {
			t.Fatalf("record %d differs:\n  want %+v\n  got  %+v", i, want, got)
		}
	}
	// The source loops: the next instruction is record 0 again.
	fs.Next(&got)
	fs2, _ := ReadTrace(mustTrace(t, b, 1))
	fs2.Next(&want)
	if got.PC != want.PC {
		t.Error("trace did not loop to the start")
	}
}

func mustTrace(t *testing.T, b Benchmark, n uint64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, b.Name, New(b, 7), n); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestTraceFileGzip(t *testing.T) {
	b, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.trace")
	zipped := filepath.Join(dir, "t.trace.gz")
	if err := WriteTraceFile(plain, b.Name, New(b, 3), 2000); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceFile(zipped, b.Name, New(b, 3), 2000); err != nil {
		t.Fatal(err)
	}
	a, err := OpenTraceFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	z, err := OpenTraceFile(zipped)
	if err != nil {
		t.Fatal(err)
	}
	var ia, iz isa.Inst
	for i := 0; i < 2000; i++ {
		a.Next(&ia)
		z.Next(&iz)
		if ia != iz {
			t.Fatalf("gzip round-trip differs at %d", i)
		}
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("short"))); err == nil {
		t.Error("short header must error")
	}
	if _, err := ReadTrace(bytes.NewReader(append([]byte("BADMAG"), make([]byte, 18)...))); err == nil {
		t.Error("bad magic must error")
	}
	if _, err := OpenTraceFile("/nonexistent/x.trace"); err == nil {
		t.Error("missing file must error")
	}
	// isa.Inst requires Dest = NoReg on stores, branches and NOPs.
	for _, in := range []isa.Inst{
		{Class: isa.Store, PC: 0x40, Src1: 1, Src2: 2, Dest: 3},
		{Class: isa.Branch, PC: 0x44, Src1: isa.NoReg, Src2: isa.NoReg, Dest: 0},
		{Class: isa.Nop, PC: 0x48, Src1: isa.NoReg, Src2: isa.NoReg, Dest: 7},
	} {
		_, err := ReadTrace(recordsTrace(t, in))
		if err == nil {
			t.Errorf("%s with a destination must error", in.Class)
		} else if !strings.Contains(err.Error(), "record 0") || !strings.Contains(err.Error(), in.Class.String()) {
			t.Errorf("%s with a destination: error %q does not name the record", in.Class, err)
		}
	}
}

// recordsTrace encodes insts as a trace named "t".
func recordsTrace(t *testing.T, insts ...isa.Inst) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, "t", &FileSource{insts: insts}, uint64(len(insts))); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// hostileHeader builds a syntactically valid trace header claiming count
// records and carrying no body at all.
func hostileHeader(count uint64) []byte {
	head := []byte(traceMagic)
	var hdr [34]byte
	binary.LittleEndian.PutUint16(hdr[0:2], traceVersion)
	binary.LittleEndian.PutUint64(hdr[2:10], count)
	binary.LittleEndian.PutUint64(hdr[26:34], 0) // empty name
	return append(head, hdr[:]...)
}

// TestReadTraceHostileCount: the count field is attacker-controlled, so a
// header claiming 2^60 records backed by nothing must fail with a parse
// error — not commit petabytes of memory up front and die on an
// allocation panic the caller cannot recover from.
func TestReadTraceHostileCount(t *testing.T) {
	for _, count := range []uint64{1 << 60, 1 << 40, ^uint64(0)} {
		fs, err := ReadTrace(bytes.NewReader(hostileHeader(count)))
		if err == nil {
			t.Fatalf("count=%d: hostile header must error, got %d insts", count, fs.Len())
		}
		if !strings.Contains(err.Error(), "short record") {
			t.Errorf("count=%d: want a short-record parse error, got: %v", count, err)
		}
	}
}

// TestReadTraceTruncated: a real trace chopped mid-body must surface a
// short-record error naming how far the parse got, never a panic or a
// silently shortened replay.
func TestReadTraceTruncated(t *testing.T) {
	b, err := ByName("gems")
	if err != nil {
		t.Fatal(err)
	}
	whole := mustTrace(t, b, 100).Bytes()
	for _, cut := range []int{1, recordBytes / 2, 50 * recordBytes} {
		_, err := ReadTrace(bytes.NewReader(whole[:len(whole)-cut]))
		if err == nil {
			t.Fatalf("cut=%d: truncated trace must error", cut)
		}
		if !strings.Contains(err.Error(), "short record") {
			t.Errorf("cut=%d: want a short-record error, got: %v", cut, err)
		}
	}
}

// TestWriteTraceFileAtomic: a failed write must leave the target path
// exactly as it was — no partial file, no leftover temp files — and a
// successful write must replace an existing file in one step. This pins
// the temp-file+rename discipline WriteTraceFile shares with the
// simulation cache's diskStore.
func TestWriteTraceFileAtomic(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out.trace")
	if err := os.WriteFile(target, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	if err := atomicWriteFile(target, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("injected write failure must surface, got: %v", err)
	}
	got, err := os.ReadFile(target)
	if err != nil || string(got) != "precious" {
		t.Fatalf("failed write must leave the target untouched, got %q, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("failed write must clean up its temp file, dir has %d entries", len(ents))
	}
	// The success path replaces the old content wholesale.
	b, err := ByName("x264")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceFile(target, b.Name, New(b, 3), 50); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenTraceFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 50 {
		t.Fatalf("replaced trace has %d insts, want 50", fs.Len())
	}
}

func TestFileSourceWrongPath(t *testing.T) {
	b, _ := ByName("gems")
	fs, err := ReadTrace(mustTrace(t, b, 100))
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	fs.WrongPath(&in, 0x999000)
	if !in.WrongPath || in.PC != 0x999000 {
		t.Errorf("wrong-path synthesis: %+v", in)
	}
}

// FuzzReadTrace throws arbitrary bytes at the trace decoder. ReadTrace
// must never panic, and every trace it accepts must honour isa.Inst's
// destination contract and survive a WriteTrace/ReadTrace round trip with
// the same name and records. The seed corpus in testdata/fuzz/FuzzReadTrace
// holds a valid trace, a truncated one, a hostile record count, a store
// with a destination and a bad class byte.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, in := range fs.insts {
			if in.Dest != isa.NoReg && (in.Class == isa.Store || in.Class == isa.Branch || in.Class == isa.Nop) {
				t.Fatalf("accepted record %d: %s with destination %d", i, in.Class, in.Dest)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, fs.Name(), fs, uint64(fs.Len())); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if back.Name() != fs.Name() || !slices.Equal(back.insts, fs.insts) {
			t.Fatalf("round trip changed the trace: name %q -> %q, %d -> %d records",
				fs.Name(), back.Name(), fs.Len(), back.Len())
		}
	})
}
