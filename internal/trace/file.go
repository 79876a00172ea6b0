package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rarsim/internal/isa"
)

// Trace files: a compact binary recording of a dynamic instruction stream,
// so the simulator can replay external workloads (or snapshots of the
// synthetic ones) instead of generating on the fly. The format is
// deliberately boring — fixed-size little-endian records behind a small
// header — and transparently gzip-compressed when the filename ends in
// ".gz".
//
//	offset  size  field
//	0       6     magic "RARTRC"
//	6       2     version (1)
//	8       8     instruction count
//	16      8     wrong-path synthesiser seed
//	24      8     wrong-path synthesiser base address
//	32      8     name length n
//	40      n     workload name (UTF-8)
//	...           count records, 32 bytes each:
//	                pc u64 | addr u64 | target u64 |
//	                class u8 | flags u8 (bit0 taken) |
//	                src1 u8 | src2 u8 | dest u8 | size u8 | pad u16

const (
	traceMagic   = "RARTRC"
	traceVersion = 1
	recordBytes  = 32
)

// WriteTrace records n instructions from src into w. When src exposes
// WrongPathParams (Generator does), the parameters are recorded so the
// replay's synthetic wrong-path stream matches the original exactly.
func WriteTrace(w io.Writer, name string, src Source, n uint64) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var wpSeed, wpBase uint64
	if p, ok := src.(interface{ WrongPathParams() (uint64, uint64) }); ok {
		wpSeed, wpBase = p.WrongPathParams()
	}
	var hdr [34]byte
	binary.LittleEndian.PutUint16(hdr[0:2], traceVersion)
	binary.LittleEndian.PutUint64(hdr[2:10], n)
	binary.LittleEndian.PutUint64(hdr[10:18], wpSeed)
	binary.LittleEndian.PutUint64(hdr[18:26], wpBase)
	binary.LittleEndian.PutUint64(hdr[26:34], uint64(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}

	var rec [recordBytes]byte
	var in isa.Inst
	for i := uint64(0); i < n; i++ {
		src.Next(&in)
		binary.LittleEndian.PutUint64(rec[0:8], in.PC)
		binary.LittleEndian.PutUint64(rec[8:16], in.Addr)
		binary.LittleEndian.PutUint64(rec[16:24], in.Target)
		rec[24] = byte(in.Class)
		rec[25] = 0
		if in.Taken {
			rec[25] = 1
		}
		rec[26] = byte(in.Src1)
		rec[27] = byte(in.Src2)
		rec[28] = byte(in.Dest)
		rec[29] = in.Size
		rec[30], rec[31] = 0, 0
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// atomicWriteFile writes through write into a temp file in path's
// directory and renames it into place only after the write, sync and
// close have all succeeded, so a failure mid-write can never leave a
// truncated file at path — the same discipline as the simulation cache's
// diskStore. The temp file lives in the target directory so the final
// rename stays on one filesystem (and therefore atomic).
func atomicWriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".trace-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	// On a write path the sync/close errors are load-bearing: they are the
	// last chance to learn the data never fully reached disk.
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		//rarlint:allow errdiscipline best-effort cleanup of a temp file that never became the target
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// WriteTraceFile records n instructions from src into path, gzipping when
// the path ends in ".gz". The file is written atomically: on any error the
// target path is left untouched (no partial trace ever appears there), and
// the gzip footer is always completed before the file can be renamed into
// place.
func WriteTraceFile(path, name string, src Source, n uint64) error {
	return atomicWriteFile(path, func(w io.Writer) error {
		if strings.HasSuffix(path, ".gz") {
			gz := gzip.NewWriter(w)
			if err := WriteTrace(gz, name, src, n); err != nil {
				//rarlint:allow errdiscipline the write error takes precedence and the temp file is discarded
				gz.Close()
				return err
			}
			return gz.Close()
		}
		return WriteTrace(w, name, src, n)
	})
}

// FileSource replays a recorded trace. The recording is loaded into memory
// and looped, so the stream is infinite like a Generator's. FileSource
// implements Source.
type FileSource struct {
	name  string
	insts []isa.Inst
	pos   int
	wp    *wpSynth
}

// ReadTrace parses a trace from r.
func ReadTrace(r io.Reader) (*FileSource, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(traceMagic)+34)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:len(traceMagic)])
	}
	if v := binary.LittleEndian.Uint16(head[6:8]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(head[8:16])
	wpSeed := binary.LittleEndian.Uint64(head[16:24])
	wpBase := binary.LittleEndian.Uint64(head[24:32])
	nameLen := binary.LittleEndian.Uint64(head[32:40])
	if count == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("trace: implausible name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: short name: %w", err)
	}

	// The header's count field is attacker-controlled: a corrupt or hostile
	// trace can claim 2^60 records backed by no data at all, and an
	// up-front make([]isa.Inst, count) would try to commit the whole claim
	// before a single record is verified. Cap the preallocation and grow
	// only as records actually arrive — a truncated body then fails with a
	// short-record error instead of an allocation panic.
	const maxPrealloc = 1 << 16
	fs := &FileSource{
		name:  string(nameBuf),
		insts: make([]isa.Inst, 0, min(count, maxPrealloc)),
	}
	var rec [recordBytes]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: short record %d: %w", i, err)
		}
		var in isa.Inst
		in.PC = binary.LittleEndian.Uint64(rec[0:8])
		in.Addr = binary.LittleEndian.Uint64(rec[8:16])
		in.Target = binary.LittleEndian.Uint64(rec[16:24])
		in.Class = isa.Class(rec[24])
		if in.Class >= isa.NumClasses {
			return nil, fmt.Errorf("trace: record %d has invalid class %d", i, rec[24])
		}
		in.Taken = rec[25]&1 != 0
		in.Src1 = isa.Reg(rec[26])
		in.Src2 = isa.Reg(rec[27])
		in.Dest = isa.Reg(rec[28])
		in.Size = rec[29]
		// isa.Inst's contract: no register result on stores, branches and
		// NOPs. The pipeline relies on it, and a record breaking it can
		// wedge the core.
		if in.Dest != isa.NoReg && (in.Class == isa.Store || in.Class == isa.Branch || in.Class == isa.Nop) {
			return nil, fmt.Errorf("trace: record %d (pc %#x) is a %s with destination register %d; stores, branches and NOPs must have none",
				i, in.PC, in.Class, rec[28])
		}
		fs.insts = append(fs.insts, in)
	}
	fs.wp = newWpSynth(wpSeed, wpBase)
	return fs, nil
}

// OpenTraceFile opens a trace file, decompressing ".gz" paths.
func OpenTraceFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//rarlint:allow errdiscipline read-path close; read errors already surface via ReadTrace
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		//rarlint:allow errdiscipline read-path close; decompression errors already surface via ReadTrace
		defer gz.Close()
		r = gz
	}
	return ReadTrace(r)
}

// Name returns the workload name recorded in the trace.
func (fs *FileSource) Name() string { return fs.name }

// Len returns the number of recorded instructions (one loop).
func (fs *FileSource) Len() int { return len(fs.insts) }

// Next serves the next recorded instruction, looping at the end.
func (fs *FileSource) Next(in *isa.Inst) {
	*in = fs.insts[fs.pos]
	fs.pos++
	if fs.pos == len(fs.insts) {
		fs.pos = 0
	}
}

// NextBlock fills dst with the next len(dst) recorded instructions,
// looping at the end — the batch face of Next (see BlockSource). Each
// wrap-free stretch is one bulk copy instead of a per-record interface
// call, which is where replayed traces spend their synthesis time.
func (fs *FileSource) NextBlock(dst []isa.Inst) {
	for len(dst) > 0 {
		n := copy(dst, fs.insts[fs.pos:])
		fs.pos += n
		if fs.pos == len(fs.insts) {
			fs.pos = 0
		}
		dst = dst[n:]
	}
}

// WrongPath synthesises wrong-path filler (recordings only contain the
// correct path).
func (fs *FileSource) WrongPath(in *isa.Inst, pc uint64) {
	fs.wp.wrongPath(in, pc)
}

// WrongPathBlock synthesises len(dst) consecutive wrong-path instructions
// starting at pc — the batch face of WrongPath (see BlockSource).
func (fs *FileSource) WrongPathBlock(dst []isa.Inst, pc uint64) {
	fs.wp.wrongPathBlock(dst, pc)
}
