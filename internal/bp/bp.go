// Package bp implements a BP-style self-describing binary index format of
// the kind ADIOS writes (the paper's Section III: writers ship per-variable
// index records to their sub-coordinator; each sub-coordinator sorts, merges
// and writes a local index for its file; the coordinator merges local
// indices into a global index describing the whole output set).
//
// Index records carry data characteristics (per-variable min/max, following
// the authors' earlier "metadata rich IO" work) which let a reader locate
// data of interest — by name, by writer rank, or by value range — with a
// single index lookup followed by one direct read.
//
// The encoding is a compact little-endian binary layout with a magic number
// and version, written with encoding/binary. It produces real bytes: the
// examples persist indices to disk and read them back.
package bp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// Format constants.
const (
	MagicLocal  uint32 = 0xAD105001 // "ADIOS" local index
	MagicGlobal uint32 = 0xAD105002 // global index
	Version     uint16 = 1

	// maxStringLen guards decoding against corrupt length prefixes.
	maxStringLen = 1 << 16
	// maxEntries guards decoding against corrupt counts.
	maxEntries = 1 << 24
)

// VarEntry is one variable record in a local index: where one writer's
// block of one variable lives, plus its data characteristics.
type VarEntry struct {
	// Name of the variable ("pressure", "B_x", ...).
	Name string
	// WriterRank is the producing process's rank in the output group.
	WriterRank int32
	// Offset and Length locate the block within its data file.
	Offset int64
	Length int64
	// Dims are the block's local dimensions (elements per axis).
	Dims []uint64
	// Min and Max are the block's value range (data characteristics).
	Min float64
	Max float64
}

// LocalIndex describes one data file: which variable blocks it holds.
type LocalIndex struct {
	// File is the data file's name.
	File string
	// Entries are the variable records, sorted by (Name, WriterRank) once
	// Sort has been called (sub-coordinators sort before writing).
	Entries []VarEntry
}

// compareEntries is the canonical entry order: (Name, WriterRank, Offset).
// The key triple is unique within any one index — a writer never emits two
// blocks of the same variable at the same offset — so every correct sort
// produces the same sequence and the algorithm is free to change.
func compareEntries(a, b *VarEntry) int {
	if a.Name != b.Name {
		if a.Name < b.Name {
			return -1
		}
		return 1
	}
	if a.WriterRank != b.WriterRank {
		return int(a.WriterRank) - int(b.WriterRank)
	}
	switch {
	case a.Offset < b.Offset:
		return -1
	case a.Offset > b.Offset:
		return 1
	}
	return 0
}

// Sort orders entries by (Name, WriterRank, Offset), the canonical order a
// sub-coordinator establishes before writing the index. Entries with equal
// keys keep their input order, so the result is that of a stable sort.
// An index already in canonical order — every local a global index merges
// was sorted where it was built — returns after one allocation-free scan.
// Otherwise the 64-byte records are not swapped throughout: sorting moves
// indices and permutes once at the end (figure-scale profiles: direct
// sort.Sort and slices.SortFunc both lose to this on copy traffic).
func (li *LocalIndex) Sort() {
	es := li.Entries
	if li.sorted() {
		return
	}
	idx := make([]int32, len(es))
	if !li.bucketOrder(idx) {
		for i := range idx {
			idx[i] = int32(i)
		}
		slices.SortFunc(idx, func(a, b int32) int {
			if c := compareEntries(&es[a], &es[b]); c != 0 {
				return c
			}
			return int(a - b)
		})
	}
	// Apply the permutation in place, one cycle at a time: es[i] must end
	// up holding the record that started at es[idx[i]].
	for i := range idx {
		if idx[i] == int32(i) {
			continue
		}
		tmp := es[i]
		j := i
		for {
			k := int(idx[j])
			idx[j] = int32(j)
			if k == i {
				es[j] = tmp
				break
			}
			es[j] = es[k]
			j = k
		}
	}
}

// sorted reports whether the entries are already in canonical order.
func (li *LocalIndex) sorted() bool {
	es := li.Entries
	for i := 1; i < len(es); i++ {
		if compareEntries(&es[i-1], &es[i]) > 0 {
			return false
		}
	}
	return true
}

// bucketOrder attempts the merge-aware fast path of Sort: a leader merging
// its cohort appends entries writer by writer in ascending rank order (and a
// sorted index being re-sorted is a further special case), so within each
// variable name the input is already ordered by (WriterRank, Offset). One
// scan over a small name table verifies that; when it holds, the canonical
// order is a stable concatenation of the per-name runs in name order — no
// comparison sort at all. On success idx is filled with the permutation
// (idx[j] = source position of the entry destined for slot j) and the result
// is true; inputs with more distinct names than the table, or out-of-order
// runs, report false with idx untouched.
func (li *LocalIndex) bucketOrder(idx []int32) bool {
	es := li.Entries
	type nameRun struct {
		name     string
		count    int32
		lastRank int32
		lastOff  int64
		start    int32
	}
	var buf [16]nameRun
	runs := buf[:0]
	for i := range es {
		e := &es[i]
		j := 0
		for ; j < len(runs); j++ {
			if runs[j].name == e.Name {
				break
			}
		}
		if j == len(runs) {
			if len(runs) == cap(runs) {
				return false
			}
			runs = append(runs, nameRun{name: e.Name, count: 1, lastRank: e.WriterRank, lastOff: e.Offset})
			continue
		}
		rn := &runs[j]
		if e.WriterRank < rn.lastRank || (e.WriterRank == rn.lastRank && e.Offset < rn.lastOff) {
			return false
		}
		rn.lastRank, rn.lastOff = e.WriterRank, e.Offset
		rn.count++
	}
	// Insertion-sort the few runs by name, then assign each its slice of the
	// output by prefix sum.
	for i := 1; i < len(runs); i++ {
		for j := i; j > 0 && runs[j].name < runs[j-1].name; j-- {
			runs[j], runs[j-1] = runs[j-1], runs[j]
		}
	}
	pos := int32(0)
	for j := range runs {
		runs[j].start = pos
		pos += runs[j].count
	}
	for i := range es {
		nm := es[i].Name
		for j := range runs {
			if runs[j].name == nm {
				idx[runs[j].start] = int32(i)
				runs[j].start++
				break
			}
		}
	}
	return true
}

// TotalBytes sums the data bytes the index covers.
func (li *LocalIndex) TotalBytes() int64 {
	var t int64
	for _, e := range li.Entries {
		t += e.Length
	}
	return t
}

// GlobalIndex merges the local indices of one output operation.
type GlobalIndex struct {
	// Step is the application output step this index describes.
	Step int64
	// Locals are the per-file indices, sorted by file name.
	Locals []LocalIndex
}

// Sort orders locals by file name and each local's entries canonically.
func (g *GlobalIndex) Sort() {
	slices.SortFunc(g.Locals, func(a, b LocalIndex) int { return strings.Compare(a.File, b.File) })
	for i := range g.Locals {
		g.Locals[i].Sort()
	}
}

// Location names one variable block: the file it is in plus its record.
type Location struct {
	File  string
	Entry VarEntry
}

// Lookup finds the block of a variable written by a specific rank. With
// rank < 0 it returns the first block of that variable.
func (g *GlobalIndex) Lookup(name string, rank int32) (Location, bool) {
	for _, li := range g.Locals {
		for _, e := range li.Entries {
			if e.Name == name && (rank < 0 || e.WriterRank == rank) {
				return Location{File: li.File, Entry: e}, true
			}
		}
	}
	return Location{}, false
}

// FindByValue returns all blocks of a variable whose [Min, Max]
// characteristics intersect [lo, hi] — the characteristics-based search the
// paper describes as the interim replacement for the global indexing phase.
func (g *GlobalIndex) FindByValue(name string, lo, hi float64) []Location {
	var out []Location
	for _, li := range g.Locals {
		for _, e := range li.Entries {
			if e.Name == name && e.Max >= lo && e.Min <= hi {
				out = append(out, Location{File: li.File, Entry: e})
			}
		}
	}
	return out
}

// Vars lists the distinct variable names in the index, sorted.
func (g *GlobalIndex) Vars() []string {
	set := map[string]struct{}{}
	for _, li := range g.Locals {
		for _, e := range li.Entries {
			set[e.Name] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// NumEntries counts variable records across all locals.
func (g *GlobalIndex) NumEntries() int {
	n := 0
	for _, li := range g.Locals {
		n += len(li.Entries)
	}
	return n
}

// --- encoding ---
//
// Encoding appends directly to a byte slice sized up front from the
// indices' EncodedSize arithmetic. The byte layout is identical to what the
// original encoding/binary.Write implementation produced (fixed-width
// little-endian); only the reflection and intermediate buffers are gone —
// index encoding sat inside every collective close and dominated its
// profile. Decoding keeps the reader-based form: it runs once per read-back
// and its error handling benefits from io.Reader framing.

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxStringLen {
		return nil, fmt.Errorf("bp: string too long (%d)", len(s))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...), nil
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("bp: corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func appendEntry(b []byte, e *VarEntry) ([]byte, error) {
	b, err := appendString(b, e.Name)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(e.WriterRank))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Length))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Min))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Max))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Dims)))
	for _, d := range e.Dims {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return b, nil
}

func readEntry(r io.Reader) (VarEntry, error) {
	var e VarEntry
	var err error
	if e.Name, err = readString(r); err != nil {
		return e, err
	}
	var nDims uint32
	for _, v := range []any{&e.WriterRank, &e.Offset, &e.Length, &e.Min, &e.Max, &nDims} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return e, err
		}
	}
	if nDims > 16 {
		return e, fmt.Errorf("bp: corrupt dimension count %d", nDims)
	}
	if nDims > 0 {
		e.Dims = make([]uint64, nDims)
		if err := binary.Read(r, binary.LittleEndian, e.Dims); err != nil {
			return e, err
		}
	}
	return e, nil
}

// encodedSize is the exact byte length appendTo will produce.
func (li *LocalIndex) encodedSize() int {
	n := 4 + 2 + 4 + len(li.File) + 4
	for i := range li.Entries {
		n += li.Entries[i].EncodedSize()
	}
	return n
}

// appendTo serialises the local index onto b.
func (li *LocalIndex) appendTo(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, MagicLocal)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b, err := appendString(b, li.File)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(li.Entries)))
	for i := range li.Entries {
		if b, err = appendEntry(b, &li.Entries[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Encode serialises the local index.
func (li *LocalIndex) Encode() ([]byte, error) {
	return li.appendTo(make([]byte, 0, li.encodedSize()))
}

// EncodedLen returns the exact length Encode would produce, applying the
// same validation, without materialising the bytes. The simulation
// transports charge index writes to the file system by size only — the
// encoded form is needed just by readers and persistence.
func (li *LocalIndex) EncodedLen() (int, error) {
	if len(li.File) > maxStringLen {
		return 0, fmt.Errorf("bp: string too long (%d)", len(li.File))
	}
	for i := range li.Entries {
		if len(li.Entries[i].Name) > maxStringLen {
			return 0, fmt.Errorf("bp: string too long (%d)", len(li.Entries[i].Name))
		}
	}
	return li.encodedSize(), nil
}

// DecodeLocal parses a local index from data.
func DecodeLocal(data []byte) (*LocalIndex, error) {
	r := bytes.NewReader(data)
	var magic uint32
	var ver uint16
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != MagicLocal {
		return nil, fmt.Errorf("bp: bad local-index magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bp: unsupported version %d", ver)
	}
	li := &LocalIndex{}
	var err error
	if li.File, err = readString(r); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxEntries {
		return nil, fmt.Errorf("bp: corrupt entry count %d", n)
	}
	li.Entries = make([]VarEntry, n)
	for i := range li.Entries {
		if li.Entries[i], err = readEntry(r); err != nil {
			return nil, err
		}
	}
	return li, nil
}

// EncodedLen returns the exact length Encode would produce, applying the
// same validation, without materialising the bytes. It is a pure size
// query: the length does not depend on order, so unlike Encode it does not
// sort and leaves the index untouched.
func (g *GlobalIndex) EncodedLen() (int, error) {
	size := 4 + 2 + 8 + 4
	for i := range g.Locals {
		n, err := g.Locals[i].EncodedLen()
		if err != nil {
			return 0, err
		}
		size += 8 + n
	}
	return size, nil
}

// Encode serialises the global index (sorting it canonically first).
func (g *GlobalIndex) Encode() ([]byte, error) {
	g.Sort()
	size := 4 + 2 + 8 + 4
	for i := range g.Locals {
		size += 8 + g.Locals[i].encodedSize()
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint32(b, MagicGlobal)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.Step))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Locals)))
	for i := range g.Locals {
		li := &g.Locals[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(li.encodedSize()))
		var err error
		if b, err = li.appendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeGlobal parses a global index from data.
func DecodeGlobal(data []byte) (*GlobalIndex, error) {
	r := bytes.NewReader(data)
	var magic uint32
	var ver uint16
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != MagicGlobal {
		return nil, fmt.Errorf("bp: bad global-index magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bp: unsupported version %d", ver)
	}
	g := &GlobalIndex{}
	if err := binary.Read(r, binary.LittleEndian, &g.Step); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxEntries {
		return nil, fmt.Errorf("bp: corrupt locals count %d", n)
	}
	g.Locals = make([]LocalIndex, 0, n)
	for i := uint32(0); i < n; i++ {
		var sz uint64
		if err := binary.Read(r, binary.LittleEndian, &sz); err != nil {
			return nil, err
		}
		if sz > uint64(r.Len()) {
			return nil, fmt.Errorf("bp: corrupt local size %d", sz)
		}
		buf := make([]byte, sz)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		li, err := DecodeLocal(buf)
		if err != nil {
			return nil, err
		}
		g.Locals = append(g.Locals, *li)
	}
	return g, nil
}

// EncodedSize estimates the byte cost of an entry when transferred as index
// metadata (used by the middleware to charge index traffic to the model).
func (e *VarEntry) EncodedSize() int {
	return 4 + len(e.Name) + 4 + 8 + 8 + 8 + 8 + 4 + 8*len(e.Dims)
}
