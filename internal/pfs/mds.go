package pfs

import (
	"repro/internal/rngx"
	"repro/internal/simkernel"
)

// MDSStats aggregates metadata-server counters.
type MDSStats struct {
	OpsServed    int
	MaxQueue     int
	TotalService float64 // seconds of service time dispensed
	StallSeconds float64 // client wait attributable to MDS stall windows
}

// MDS models the metadata server: a bounded-concurrency FIFO service point
// with lognormal service times. Section II of the paper notes that metadata
// scalability is a separate, known problem (LWFS, partial serialization);
// here it matters because file open/create storms from tens of thousands of
// writers queue behind it, which the stagger-open technique mitigates.
type MDS struct {
	k    *simkernel.Kernel //repro:reset-skip immutable wiring to the owning kernel
	res  *simkernel.Resource
	src  *rngx.Source
	mean float64
	cv   float64
	// jobOps counts metadata operations per job id (index 0 =
	// unattributed); see jobacct.go.
	jobOps []int
	// stallUntil gates operation intake during an injected stall/failover
	// window (the MDS health story): requests arriving before it wait until
	// it passes. Zero (the zero-failure case) adds no events.
	stallUntil simkernel.Time
	Stats      MDSStats
}

func newMDS(k *simkernel.Kernel, cfg *Config, src *rngx.Source) *MDS {
	return &MDS{
		k:    k,
		res:  simkernel.NewResource(k, cfg.MDSCapacity),
		src:  src,
		mean: cfg.MDSServiceMean,
		cv:   cfg.MDSServiceCV,
	}
}

// reset re-arms the MDS for a new configuration in place: the service
// resource is re-sized, the service-time stream reseeded to the state
// newMDS's derived source would start in, and the counters cleared.
func (m *MDS) reset(cfg *Config, seed int64) {
	m.res.Reset(cfg.MDSCapacity)
	m.src.ReseedNamed(seed, "mds")
	m.mean = cfg.MDSServiceMean
	m.cv = cfg.MDSServiceCV
	for i := range m.jobOps {
		m.jobOps[i] = 0
	}
	m.jobOps = m.jobOps[:0]
	m.stallUntil = 0
	m.Stats = MDSStats{}
}

// Stall blocks metadata intake until the given absolute time: requests
// arriving inside the window queue behind it (an MDS failover pause). A
// later Stall extends the window; reviving early is done with Stall(0).
func (m *MDS) Stall(until simkernel.Time) { m.stallUntil = until }

// StallUntil reports the current stall window's end (zero when none).
func (m *MDS) StallUntil() simkernel.Time { return m.stallUntil }

// Op performs one metadata operation (open, create, stat, close) on behalf
// of process p, blocking for queueing plus service time.
func (m *MDS) Op(p *simkernel.Proc) {
	op := mdsOp{m: m}
	p.Await(op.step)
}

// QueueLen reports the current number of queued metadata requests.
func (m *MDS) QueueLen() int { return m.res.QueueLen() }
