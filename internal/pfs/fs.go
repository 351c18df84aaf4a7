package pfs

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// Layout describes how a file is striped across OSTs.
type Layout struct {
	// OSTs explicitly lists the storage targets (by index) the file stripes
	// over, in round-robin order. When nil, the file system allocates
	// StripeCount consecutive targets round-robin (Lustre-style).
	OSTs []int

	// StripeCount is used when OSTs is nil; zero means the configured
	// default stripe count.
	StripeCount int

	// StripeSize in bytes; zero means the configured default.
	StripeSize int64
}

// File is an open file handle. A File is not safe for use outside the
// owning kernel's handoff discipline. Handles live in their file system's
// arena: a *File is valid until the file system's next Reset, which hands
// its storage to the next run's files.
type File struct {
	fs     *FileSystem
	Name   string
	osts   []int
	stripe int64
	size   int64
	// touched is the set of targets written through the file, shared by
	// the creating handle and every handle opened from it; it points at
	// the creating handle's set.
	touched *ostSet
	closed  bool
	set     ostSet // the set touched points at on a created handle
}

// ostSet is a file's touched-target set: OST indices in ascending order.
type ostSet []int

// add inserts OST o, keeping the set sorted; it reuses the set's capacity.
func (s *ostSet) add(o int) {
	if i, found := slices.BinarySearch(*s, o); !found {
		*s = slices.Insert(*s, i, o)
	}
}

// fileChunk is the number of Files in one arena chunk.
const fileChunk = 256

// FileSystem is a simulated parallel file system instance.
type FileSystem struct {
	K    *simkernel.Kernel //repro:reset-skip immutable wiring to the owning kernel
	Cfg  Config
	OSTs []*OST
	MDS  *MDS

	rng     *rngx.Source
	files   map[string]*File
	nextOST int
	// slab holds every File handed out since the last Reset, in fixed-size
	// chunks so handles never move; nfile is the next free slot.
	slab  [][]File //repro:reset-skip arena storage kept for reuse; Reset rewinds nfile and newFile zeroes each slot it hands out
	nfile int
	// oneOST is the identity table [0, 1, ..., n): oneOST[i:i+1] is the
	// shared, immutable layout of every file striped over OST i alone.
	oneOST []int
	// jobs names the registered jobs for per-job traffic attribution
	// (ids are index+1; 0 is the unattributed bucket); see jobacct.go.
	jobs []string
}

// New constructs a file system on kernel k. cfg is validated and defaulted.
func New(k *simkernel.Kernel, cfg Config) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rngx.NewNamed(cfg.Seed, "pfs")
	fs := &FileSystem{
		K:     k,
		Cfg:   cfg,
		rng:   rng,
		files: make(map[string]*File),
	}
	fs.OSTs = make([]*OST, cfg.NumOSTs)
	for i := range fs.OSTs {
		fs.OSTs[i] = newOST(k, &fs.Cfg, i)
	}
	fs.MDS = newMDS(k, &fs.Cfg, rng.Derive("mds"))
	fs.growOneOST()
	return fs, nil
}

// Reset re-arms the file system for a new configuration without rebuilding
// it, producing a world bit-identical to New(k, cfg) on a fresh kernel: the
// RNG streams are reseeded in the exact construction draw order, the OST set
// is resized and each target's fluid state zeroed, the MDS re-sized, and the
// namespace cleared. The owning kernel must already have been Reset (clock at
// zero, no pending events). The OST count may differ from the previous run;
// every other knob is taken from cfg just as New does.
func (fs *FileSystem) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	fs.Cfg = cfg // OSTs and MDS read through &fs.Cfg, so this re-points every knob
	fs.rng.ReseedNamed(cfg.Seed, "pfs")
	if cfg.NumOSTs < len(fs.OSTs) {
		for i := cfg.NumOSTs; i < len(fs.OSTs); i++ {
			fs.OSTs[i] = nil
		}
		fs.OSTs = fs.OSTs[:cfg.NumOSTs]
	}
	for _, o := range fs.OSTs {
		o.reset()
	}
	for i := len(fs.OSTs); i < cfg.NumOSTs; i++ {
		fs.OSTs = append(fs.OSTs, newOST(fs.K, &fs.Cfg, i))
	}
	// Construction order parity with New: building the OSTs draws nothing,
	// then deriving the MDS stream consumes exactly one Int63.
	fs.MDS.reset(&fs.Cfg, fs.rng.Int63())
	clear(fs.files)
	fs.nfile = 0
	fs.growOneOST()
	fs.nextOST = 0
	fs.jobs = fs.jobs[:0]
	return nil
}

// growOneOST extends the one-OST layout table to cover every target. A
// grown table is a new array: layouts already handed out keep the old one.
func (fs *FileSystem) growOneOST() {
	if len(fs.OSTs) > len(fs.oneOST) {
		fs.oneOST = make([]int, len(fs.OSTs))
		for i := range fs.oneOST {
			fs.oneOST[i] = i
		}
	}
}

// newFile hands out the arena's next File, zeroed apart from the slot's
// touched-set capacity.
func (fs *FileSystem) newFile() *File {
	c, i := fs.nfile/fileChunk, fs.nfile%fileChunk
	if c == len(fs.slab) {
		fs.slab = append(fs.slab, make([]File, fileChunk))
	}
	fs.nfile++
	f := &fs.slab[c][i]
	*f = File{fs: fs, set: f.set[:0]}
	return f
}

// MustNew is New for tests and examples where the config is known-good.
func MustNew(k *simkernel.Kernel, cfg Config) *FileSystem {
	fs, err := New(k, cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// OST returns the storage target with index i.
func (fs *FileSystem) OST(i int) *OST { return fs.OSTs[i] }

// resolveLayout turns a Layout into a concrete OST list and stripe size.
// An explicit one-OST layout resolves to the shared oneOST entry; any other
// list is the caller's own copy.
func (fs *FileSystem) resolveLayout(l Layout) ([]int, int64, error) {
	stripeSize := l.StripeSize
	if stripeSize <= 0 {
		stripeSize = fs.Cfg.StripeSize
	}
	if len(l.OSTs) > 0 {
		if len(l.OSTs) > fs.Cfg.MaxStripeCount {
			return nil, 0, fmt.Errorf("pfs: stripe count %d exceeds file system limit %d",
				len(l.OSTs), fs.Cfg.MaxStripeCount)
		}
		for _, i := range l.OSTs {
			if i < 0 || i >= len(fs.OSTs) {
				return nil, 0, fmt.Errorf("pfs: OST index %d out of range [0,%d)", i, len(fs.OSTs))
			}
		}
		if len(l.OSTs) == 1 {
			i := l.OSTs[0]
			return fs.oneOST[i : i+1 : i+1], stripeSize, nil
		}
		return append([]int(nil), l.OSTs...), stripeSize, nil
	}
	count := l.StripeCount
	if count <= 0 {
		count = fs.Cfg.DefaultStripeCount
	}
	if count > fs.Cfg.MaxStripeCount {
		return nil, 0, fmt.Errorf("pfs: stripe count %d exceeds file system limit %d",
			count, fs.Cfg.MaxStripeCount)
	}
	if count > len(fs.OSTs) {
		return nil, 0, fmt.Errorf("pfs: stripe count %d exceeds OST count %d", count, len(fs.OSTs))
	}
	osts := make([]int, count)
	for i := 0; i < count; i++ {
		osts[i] = (fs.nextOST + i) % len(fs.OSTs)
	}
	fs.nextOST = (fs.nextOST + count) % len(fs.OSTs)
	return osts, stripeSize, nil
}

// Create performs a metadata create (queueing at the MDS) and returns a
// handle. Creating an existing name truncates it, like O_TRUNC.
func (fs *FileSystem) Create(p *simkernel.Proc, name string, layout Layout) (*File, error) {
	var op CreateOp
	op.BeginCreate(fs, name, layout)
	p.Await(op.Step)
	return op.File(), op.Err()
}

// Open performs a metadata open of an existing file.
func (fs *FileSystem) Open(p *simkernel.Proc, name string) (*File, error) {
	var op OpenOp
	op.BeginOpen(fs, name)
	p.Await(op.Step)
	return op.File(), op.Err()
}

// Exists reports whether a file name is known (no simulated cost).
func (fs *FileSystem) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Size returns the current size of the file.
func (f *File) Size() int64 { return f.size }

// StripeOSTs returns the OST indices the file stripes over.
func (f *File) StripeOSTs() []int { return append([]int(nil), f.osts...) }

// StripeSize returns the file's stripe width in bytes.
func (f *File) StripeSize() int64 { return f.stripe }

// ostForStripe maps a stripe index to the owning OST index.
func (f *File) ostForStripe(stripeIdx int64) int {
	return f.osts[int(stripeIdx%int64(len(f.osts)))]
}

// chunk is one contiguous piece of a write destined for a single OST.
type chunk struct {
	ost   int
	bytes int64
}

// appendChunks decomposes a [offset, offset+length) write into per-stripe
// chunks appended to dst, merging consecutive chunks on the same OST, then
// coarsening to at most MaxChunksPerOp pieces (the coarsening keeps per-OST
// byte totals approximately proportional; it exists to bound event counts
// on terabyte writes and is bypassed for single-OST files). It reuses dst's
// capacity: the client ops (cont.go) hold a scratch chunk list per client
// so steady-state writes decompose without allocating.
func (f *File) appendChunks(dst []chunk, offset, length int64) []chunk {
	if length <= 0 {
		return dst
	}
	if len(f.osts) == 1 {
		return append(dst, chunk{ost: f.osts[0], bytes: length})
	}
	base := len(dst)
	pos := offset
	end := offset + length
	for pos < end {
		sIdx := pos / f.stripe
		sEnd := (sIdx + 1) * f.stripe
		if sEnd > end {
			sEnd = end
		}
		o := f.ostForStripe(sIdx)
		n := sEnd - pos
		if len(dst) > base && dst[len(dst)-1].ost == o {
			dst[len(dst)-1].bytes += n
		} else {
			dst = append(dst, chunk{ost: o, bytes: n})
		}
		pos = sEnd
	}
	max := f.fs.Cfg.MaxChunksPerOp
	if max > 0 && len(dst)-base > max {
		coarse := coarsen(dst[base:], max)
		dst = append(dst[:base], coarse...)
	}
	return dst
}

// coarsen merges neighbouring chunks until at most max remain, assigning
// each merged chunk to the OST that contributed the most bytes.
func coarsen(in []chunk, max int) []chunk {
	groups := max
	out := make([]chunk, 0, groups)
	per := int(math.Ceil(float64(len(in)) / float64(groups)))
	for i := 0; i < len(in); i += per {
		j := i + per
		if j > len(in) {
			j = len(in)
		}
		byOST := map[int]int64{}
		var total int64
		for _, c := range in[i:j] {
			byOST[c.ost] += c.bytes
			total += c.bytes
		}
		best, bestBytes := in[i].ost, int64(-1)
		// Deterministic winner: iterate sorted keys.
		keys := make([]int, 0, len(byOST))
		for k := range byOST {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if byOST[k] > bestBytes {
				best, bestBytes = k, byOST[k]
			}
		}
		out = append(out, chunk{ost: best, bytes: total})
	}
	return out
}

// WriteAt writes length bytes at offset, blocking the calling process until
// every byte has been accepted by the storage targets. Chunks are issued
// sequentially, modelling a single POSIX/MPI-IO client stream working
// through its file region. If a chunk's target is Dead the call returns
// ErrTargetDown after the configured timeout; bytes already accepted by
// earlier chunks stay accepted, but the handle's size is not advanced.
func (f *File) WriteAt(p *simkernel.Proc, offset, length int64) error {
	var op WriteOp
	op.BeginWrite(f, offset, length)
	p.Await(op.Step)
	return op.Err()
}

// Append writes length bytes at the file's current end (single-writer
// convenience; concurrent appenders should coordinate offsets themselves as
// the adaptive method does).
func (f *File) Append(p *simkernel.Proc, length int64) (int64, error) {
	var op WriteOp
	off := op.BeginAppend(f, length)
	p.Await(op.Step)
	return off, op.Err()
}

// Flush blocks until all bytes this handle has written are on disk. Targets
// are waited on sequentially; draining proceeds in parallel across OSTs, so
// the total wait is governed by the slowest target.
func (f *File) Flush(p *simkernel.Proc) {
	var op FlushOp
	op.BeginFlush(f)
	p.Await(op.Step)
}

// Close flushes nothing (callers flush explicitly, as the paper's
// methodology does) and performs the metadata close.
func (f *File) Close(p *simkernel.Proc) {
	var op CloseOp
	op.BeginClose(f)
	p.Await(op.Step)
}

// ReadAt models reading length bytes at offset. Reads bypass the write
// cache and share disk bandwidth with ongoing writes; the model is coarse
// (rate fixed at issue time per chunk) since the paper's experiments are
// write-dominated. A chunk against a Dead target hangs for the configured
// timeout and returns ErrTargetDown; a Degraded or Rebuilding target serves
// the read at its health-reduced bandwidth.
func (f *File) ReadAt(p *simkernel.Proc, offset, length int64) error {
	var op ReadOp
	op.BeginRead(f, offset, length)
	p.Await(op.Step)
	return op.Err()
}

// TotalBytesDrained sums drained bytes across all OSTs (diagnostics).
func (fs *FileSystem) TotalBytesDrained() float64 {
	var t float64
	for _, o := range fs.OSTs {
		o.advance()
		t += o.drainedTotal
	}
	return t
}

// TotalBytesIngested sums accepted bytes across all OSTs (diagnostics).
func (fs *FileSystem) TotalBytesIngested() float64 {
	var t float64
	for _, o := range fs.OSTs {
		o.advance()
		t += o.ingestedTotal
	}
	return t
}
