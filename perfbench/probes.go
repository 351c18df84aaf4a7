package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/adios"
	"repro/cluster"
	"repro/internal/bp"
	"repro/internal/machines"
	"repro/internal/pfs"
	"repro/internal/rngx"
	"repro/internal/simkernel"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Layer probes time calls into one module's public API, on inputs fixed by
// the seed. Each reports the median over batches of its per-operation
// time, so a slow batch on a shared host moves it little.

const probeBatches = 15

// perOp runs batch probeBatches times and returns the median time per
// operation in nanoseconds; each batch performs ops operations.
func perOp(ops int, batch func(i int) error) (float64, error) {
	ts := make([]float64, probeBatches)
	for i := range ts {
		start := time.Now()
		if err := batch(i); err != nil {
			return 0, err
		}
		ts[i] = float64(time.Since(start)) / float64(ops)
	}
	return stats.Median(ts), nil
}

// probeReset times a warm world reset: Pool.Rent of a returned world of
// the workload's shape (which Resets it at a new seed) plus Return.
func probeReset(w *workload, seed int64) (float64, error) {
	pool := cluster.NewPool()
	defer pool.Close()
	rent := func(i int) error {
		c, err := pool.Rent(w.machine(), w.clusterConfig(rngx.DeriveSeed(seed, "perfbench-reset", strconv.Itoa(i))))
		if err != nil {
			return err
		}
		pool.Return(c)
		return nil
	}
	if err := rent(-1); err != nil { // the cold build the resets reuse
		return 0, err
	}
	return perOp(1, rent)
}

// probeSeed times rngx.NewNamed on seeds no earlier call used, so every
// call expands its register (the memo only caches recurring seeds).
func probeSeed(seed int64) (float64, error) {
	const n = 200
	seeds := make([]int64, n*probeBatches)
	for i := range seeds {
		seeds[i] = rngx.DeriveSeed(seed, "perfbench-rngx", strconv.Itoa(i))
	}
	var sink float64
	d, err := perOp(n, func(b int) error {
		for _, s := range seeds[b*n : (b+1)*n] {
			sink += rngx.NewNamed(s, "ost").Float64()
		}
		return nil
	})
	if sink < 0 {
		return 0, fmt.Errorf("rngx probe: negative uniform draw")
	}
	return d, err
}

// probeTimers times one kernel event: Kernel.At for a batch of distinct
// future times, then Run firing them all.
func probeTimers() (float64, error) {
	const n = 4096
	k := simkernel.New()
	defer k.Shutdown()
	fired := 0
	fn := func() { fired++ }
	d, err := perOp(n, func(int) error {
		base := k.Now()
		for j := 0; j < n; j++ {
			k.At(base+simkernel.Time(j*7%n+1), fn)
		}
		k.Run()
		return nil
	})
	if err == nil && fired != n*probeBatches {
		return 0, fmt.Errorf("timer probe: %d of %d events fired", fired, n*probeBatches)
	}
	return d, err
}

// pinger sends a token and waits for it to come back, rounds times; with
// serve set it is the other side, which waits first and echoes.
type pinger struct {
	rounds   int
	serve    bool
	me, peer *simkernel.Mailbox
	recv     simkernel.RecvOp
	waiting  bool
}

func (m *pinger) Step(c *simkernel.ContProc) bool {
	for {
		if m.waiting {
			m.recv.Msg()
			m.waiting = false
			if m.serve {
				m.peer.Send(m)
			}
		}
		if m.rounds == 0 {
			return true
		}
		m.rounds--
		if !m.serve {
			m.peer.Send(m)
		}
		m.waiting = true
		if !m.me.RecvCont(&m.recv, c) {
			return false
		}
	}
}

// probeMailbox times one Mailbox.Send + RecvCont round trip between two
// continuation processes.
func probeMailbox() (float64, error) {
	const n = 4096
	return perOp(n, func(int) error {
		k := simkernel.New()
		defer k.Shutdown()
		a, b := simkernel.NewMailbox(k), simkernel.NewMailbox(k)
		ping := &pinger{rounds: n, me: a, peer: b}
		pong := &pinger{rounds: n, serve: true, me: b, peer: a}
		k.SpawnCont("ping", ping)
		k.SpawnCont("pong", pong)
		k.Run()
		if ping.rounds != 0 || ping.waiting {
			return fmt.Errorf("mailbox probe: ping stopped with %d rounds left", ping.rounds)
		}
		return nil
	})
}

// stormWriter creates one file on its target, then appends writes chunks.
type stormWriter struct {
	fs     *pfs.FileSystem
	name   string
	ost    int
	writes int
	bytes  int64
	pc     int
	create pfs.CreateOp
	write  pfs.WriteOp
	err    error
}

func (s *stormWriter) Step(c *simkernel.ContProc) bool {
	for {
		switch s.pc {
		case 0:
			s.create.BeginCreate(s.fs, s.name, pfs.Layout{OSTs: []int{s.ost}})
			s.pc = 1
		case 1:
			if !s.create.Step(c) {
				return false
			}
			if s.err = s.create.Err(); s.err != nil {
				return true
			}
			s.pc = 2
		case 2:
			if s.writes == 0 {
				return true
			}
			s.writes--
			s.write.BeginAppend(s.create.File(), s.bytes)
			s.pc = 3
		case 3:
			if !s.write.Step(c) {
				return false
			}
			if s.err = s.write.Err(); s.err != nil {
				return true
			}
			s.pc = 2
		}
	}
}

// probeWriteStorm times one write in a storm: on a fresh 4-target Jaguar
// file system, 32 continuation writers per target each create a file and
// append 8 chunks of 4 MiB with pfs.WriteOp.
func probeWriteStorm(seed int64) (float64, error) {
	const osts, perOST, writes = 4, 32, 8
	return perOp(osts*perOST*writes, func(b int) error {
		k := simkernel.New()
		defer k.Shutdown()
		cfg := machines.Jaguar(rngx.DeriveSeed(seed, "perfbench-storm", strconv.Itoa(b))).FS
		cfg.NumOSTs = osts
		fs, err := pfs.New(k, cfg)
		if err != nil {
			return err
		}
		ws := make([]*stormWriter, osts*perOST)
		for i := range ws {
			ws[i] = &stormWriter{fs: fs, name: "storm." + strconv.Itoa(i), ost: i % osts, writes: writes, bytes: 4 * pfs.MB}
			k.SpawnCont("storm", ws[i])
		}
		k.Run()
		for _, wr := range ws {
			if wr.err != nil || wr.writes != 0 {
				return fmt.Errorf("write storm: writer %s stopped with %d writes left: %v", wr.name, wr.writes, wr.err)
			}
		}
		return nil
	})
}

// stepRank is one rank's adaptive output step as a continuation: open the
// step, declare the rank's data, and drive the collective close.
type stepRank struct {
	io     *adios.IO
	name   string
	result **adios.StepResult // where rank 0 leaves its result
	pc     int
	close  adios.CloseCont
	err    error
}

func (s *stepRank) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	if s.pc == 0 {
		f := s.io.Open(r, s.name)
		f.WriteData(workloads.Pixie3D(r.Rank(), workloads.Pixie3DLarge))
		f.BeginCloseCont(&s.close)
		s.pc = 1
	}
	if !s.close.Step(c) {
		return false
	}
	res, err := s.close.Result()
	s.err = err
	if r.Rank() == 0 {
		*s.result = res
	}
	return true
}

// probeAdaptiveStep times one adaptive output step — Pixie3D large data on
// 64 ranks over 16 of 20 Jaguar targets, through adios.NewIO,
// World.LaunchCont and File.BeginCloseCont — in one world reused across
// steps. It returns the last step's global index for the bp probes.
func probeAdaptiveStep(seed int64) (float64, *bp.GlobalIndex, error) {
	const ranks = 64
	c := cluster.Jaguar(cluster.Config{Seed: seed, NumOSTs: 20})
	defer c.Shutdown()
	w := c.NewWorld(ranks)
	osts := make([]int, 16)
	for i := range osts {
		osts[i] = i
	}
	io, err := adios.NewIO(c, w, adios.Options{Method: adios.MethodAdaptive, OSTs: osts})
	if err != nil {
		return 0, nil, err
	}
	if !io.ContCapable() {
		return 0, nil, fmt.Errorf("adaptive step: transport has no continuation form")
	}
	var last *adios.StepResult
	d, err := perOp(1, func(b int) error {
		bodies := make([]*stepRank, ranks)
		join := w.LaunchCont(func(i int) cluster.RankCont {
			bodies[i] = &stepRank{io: io, name: "step" + strconv.Itoa(b), result: &last}
			return bodies[i]
		})
		c.Run()
		if !join.Done() {
			return fmt.Errorf("adaptive step %d did not complete", b)
		}
		for _, s := range bodies {
			if s.err != nil {
				return fmt.Errorf("adaptive step %d: %w", b, s.err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return d, last.Index(), nil
}

// cloneShuffled deep-copies an index and permutes its locals and each
// local's entries, so a Sort does the full work again.
func cloneShuffled(g *bp.GlobalIndex, src *rngx.Source) *bp.GlobalIndex {
	out := &bp.GlobalIndex{Step: g.Step, Locals: make([]bp.LocalIndex, len(g.Locals))}
	for i, l := range g.Locals {
		out.Locals[i] = bp.LocalIndex{File: l.File, Entries: append([]bp.VarEntry(nil), l.Entries...)}
	}
	src.Shuffle(len(out.Locals), func(i, j int) { out.Locals[i], out.Locals[j] = out.Locals[j], out.Locals[i] })
	for i := range out.Locals {
		e := out.Locals[i].Entries
		src.Shuffle(len(e), func(i, j int) { e[i], e[j] = e[j], e[i] })
	}
	return out
}

// probeIndex times GlobalIndex.Sort+Encode on shuffled copies of an
// adaptive step's index, and DecodeGlobal of its encoding; decoding must
// give back the entry count.
func probeIndex(g *bp.GlobalIndex, seed int64) (sortEncode, decode float64, err error) {
	src := rngx.NewNamed(seed, "perfbench-bp")
	copies := make([]*bp.GlobalIndex, probeBatches)
	for i := range copies {
		copies[i] = cloneShuffled(g, src)
	}
	var enc []byte
	sortEncode, err = perOp(1, func(i int) error {
		copies[i].Sort()
		enc, err = copies[i].Encode()
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	decode, err = perOp(1, func(int) error {
		back, err := bp.DecodeGlobal(enc)
		if err == nil && back.NumEntries() != g.NumEntries() {
			err = fmt.Errorf("decoded %d entries, encoded %d", back.NumEntries(), g.NumEntries())
		}
		return err
	})
	return sortEncode, decode, err
}
