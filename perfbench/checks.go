package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"strings"

	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// checker validates one replica's outputs against what its spec declares.
// A non-nil error marks the replica failed.
type checker func(s scenario.Sample) error

// newChecker builds the output check for a workload spec.
func newChecker(spec scenario.Scenario) (checker, error) {
	switch {
	case len(spec.Jobs) > 0:
		return jobMixChecker(spec)
	case spec.Workload.Kind == scenario.KindApp:
		return appChecker(spec)
	case spec.Workload.Kind == scenario.KindIOR:
		return iorChecker(spec), nil
	}
	return nil, fmt.Errorf("no output check for workload kind %q", spec.Workload.Kind)
}

// declaredBytes sums RankData.TotalBytes over a generator's ranks: the
// data volume one output step of the application declares.
func declaredBytes(generator string, procs int) (float64, error) {
	gen, err := workloads.ByName(generator)
	if err != nil {
		return 0, err
	}
	var total int64
	for r := 0; r < procs; r++ {
		total += gen.PerRank(r).TotalBytes()
	}
	return float64(total), nil
}

// isAdaptive reports whether a transport method name selects adaptive IO
// (the scenario default).
func isAdaptive(method string) bool {
	return method == "" || strings.EqualFold(method, "ADAPTIVE")
}

// appChecker checks one collective output step: every rank's declared
// bytes reach storage (exactly for adaptive IO; MPI-IO adds its in-file
// index on top), every writer reports a time, the step took positive,
// finite simulated time, and no write was abandoned.
func appChecker(spec scenario.Scenario) (checker, error) {
	procs := spec.Workload.Procs
	want, err := declaredBytes(spec.Workload.Generator, procs)
	if err != nil {
		return nil, err
	}
	exact := isAdaptive(spec.Transport.Method)
	return func(s scenario.Sample) error {
		if exact && s.TotalBytes != want {
			return fmt.Errorf("wrote %v bytes, declared %v", s.TotalBytes, want)
		}
		if !exact && s.TotalBytes < want {
			return fmt.Errorf("wrote %v bytes, below the declared %v", s.TotalBytes, want)
		}
		if len(s.WriterTimes) != procs {
			return fmt.Errorf("%d writer times for %d procs", len(s.WriterTimes), procs)
		}
		if !(s.Elapsed > 0) || math.IsInf(s.Elapsed, 0) {
			return fmt.Errorf("elapsed %v is not positive and finite", s.Elapsed)
		}
		if s.WriteFailures != 0 {
			return fmt.Errorf("%d write failures without a failure script", s.WriteFailures)
		}
		return nil
	}, nil
}

// iorChecker checks one IOR run: no writer lost its payload and every
// writer reports a bandwidth.
func iorChecker(spec scenario.Scenario) checker {
	writers := spec.Workload.Writers
	return func(s scenario.Sample) error {
		if s.FailedWriters != 0 {
			return fmt.Errorf("%d failed writers", s.FailedWriters)
		}
		if len(s.PerWriterBW) != writers {
			return fmt.Errorf("%d per-writer bandwidths for %d writers", len(s.PerWriterBW), writers)
		}
		return nil
	}
}

// jobWant is what one job of a mix declares it moves per replica.
type jobWant struct {
	name          string
	written, read float64
	writtenSlack  bool // MPI-IO checkpoints add an index on top of the data
	metaOps       int
}

// jobMixChecker checks each job's attributed traffic against its spec:
// an app job writes its ranks' declared data every phase (exactly under
// adaptive IO) and reads nothing; an ML read job reads its shard every
// epoch after one create and one close per rank; an mdtest job creates,
// writes and closes its files every phase.
func jobMixChecker(spec scenario.Scenario) (checker, error) {
	wants := make([]jobWant, len(spec.Jobs))
	for i, j := range spec.Jobs {
		phases := j.Phases
		if phases <= 0 {
			phases = 1
		}
		bytes := j.Bytes
		if bytes == 0 {
			bytes = j.SizeMB * pfs.MB
		}
		w := jobWant{name: j.Name}
		switch j.Kind {
		case scenario.JobKindApp:
			step, err := declaredBytes(j.Generator, j.Procs)
			if err != nil {
				return nil, err
			}
			method := j.Transport.Method
			if method == "" {
				method = spec.Transport.Method
			}
			w.written = step * float64(phases)
			w.writtenSlack = !isAdaptive(method)
			w.metaOps = -1 // transport-defined; not declared by the spec
		case scenario.JobKindMLRead:
			w.read = bytes * float64(j.Procs*phases)
			w.metaOps = 2 * j.Procs
		case scenario.JobKindMDTest:
			files := j.FilesPerRank
			if files <= 0 {
				files = 16
			}
			if bytes == 0 {
				bytes = workloads.MDTestBytesPerFile
			}
			n := j.Procs * phases * files
			w.written = bytes * float64(n)
			w.metaOps = 2 * n
		default:
			return nil, fmt.Errorf("job %q: no output check for kind %q", j.Name, j.Kind)
		}
		wants[i] = w
	}
	return func(s scenario.Sample) error {
		if len(s.Jobs) != len(wants) {
			return fmt.Errorf("%d job samples for %d jobs", len(s.Jobs), len(wants))
		}
		for i, w := range wants {
			got := s.Jobs[i]
			if got.Name != w.name {
				return fmt.Errorf("job %d is %q, want %q", i, got.Name, w.name)
			}
			if w.writtenSlack && got.BytesWritten < w.written || !w.writtenSlack && got.BytesWritten != w.written {
				return fmt.Errorf("job %q wrote %v bytes, declared %v", w.name, got.BytesWritten, w.written)
			}
			if got.BytesRead != w.read {
				return fmt.Errorf("job %q read %v bytes, declared %v", w.name, got.BytesRead, w.read)
			}
			if w.metaOps >= 0 && got.MetaOps != w.metaOps {
				return fmt.Errorf("job %q did %d metadata ops, declared %d", w.name, got.MetaOps, w.metaOps)
			}
		}
		if !(s.Elapsed > 0) || math.IsInf(s.Elapsed, 0) {
			return fmt.Errorf("makespan %v is not positive and finite", s.Elapsed)
		}
		return nil
	}, nil
}

// digest is an FNV-1a hash over every field of a sequence of samples,
// walked by reflection so a field added to scenario.Sample is covered
// without touching the benchmark.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) Sum() uint64 { return d.h.Sum64() }

func (d *digest) word(u uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], u)
	d.h.Write(d.buf[:])
}

// add folds one sample into the digest.
func (d *digest) add(s *scenario.Sample) { d.value(reflect.ValueOf(s).Elem()) }

func (d *digest) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		d.word(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.word(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			d.word(1)
		} else {
			d.word(0)
		}
	case reflect.String:
		d.word(uint64(v.Len()))
		d.h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		d.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			d.value(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			d.value(v.Field(i))
		}
	default:
		panic(fmt.Sprintf("digest: unsupported field kind %s", v.Kind()))
	}
}
