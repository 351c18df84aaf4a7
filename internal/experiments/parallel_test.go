package experiments

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// The parallel campaign runner's determinism contract: a campaign's results
// are a pure function of (master seed, replica keys), so running the same
// grid on 1 worker and on N workers must produce bit-identical sample maps.
// These tests are the regression gate for that contract on the two heaviest
// drivers (the Section IV evaluation grid and the Table I hourly series).

func fig5DeterminismOpts(parallel int) EvalOptions {
	return EvalOptions{
		ProcCounts:   []int{32, 64},
		Samples:      3,
		MPIOSTs:      4,
		AdaptiveOSTs: 16,
		NumOSTs:      16,
		Seed:         11,
		Parallel:     parallel,
	}
}

func TestFig5ParallelBitIdentical(t *testing.T) {
	gen := workloads.Pixie3DGen(workloads.Pixie3DSmall)
	seq, err := EvaluateWorkload(gen, "determinism", fig5DeterminismOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvaluateWorkload(gen, "determinism", fig5DeterminismOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.BWSamples, par.BWSamples) {
		t.Errorf("BW samples diverged between 1 and 8 workers:\nseq: %v\npar: %v",
			seq.BWSamples, par.BWSamples)
	}
	if !reflect.DeepEqual(seq.ElapsedSamples, par.ElapsedSamples) {
		t.Error("elapsed samples diverged between 1 and 8 workers")
	}
	if !reflect.DeepEqual(seq.AdaptiveCounts, par.AdaptiveCounts) {
		t.Error("adaptive counts diverged between 1 and 8 workers")
	}
	if seq.Figure.Render() != par.Figure.Render() {
		t.Error("rendered figures diverged between 1 and 8 workers")
	}
}

func TestTableIParallelBitIdentical(t *testing.T) {
	opts := func(parallel int) TableIOptions {
		return TableIOptions{
			JaguarSamples:   10,
			FranklinSamples: 10,
			XTPSamples:      6,
			ScaleOSTs:       16,
			Seed:            13,
			Parallel:        parallel,
		}
	}
	seq, err := TableI(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := TableI(opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Series, par.Series) {
		t.Errorf("Table I series diverged between 1 and 8 workers:\nseq: %+v\npar: %+v",
			seq.Series, par.Series)
	}
	if seq.Table.Render() != par.Table.Render() {
		t.Error("rendered tables diverged between 1 and 8 workers")
	}
}

func TestFig1ParallelBitIdentical(t *testing.T) {
	opts := func(parallel int) Fig1Options {
		return Fig1Options{
			OSTs:     4,
			Ratios:   []int{1, 4},
			SizesMB:  []float64{8, 128},
			Samples:  3,
			Seed:     17,
			Parallel: parallel,
		}
	}
	seq, err := Fig1(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig1(opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Samples, par.Samples) {
		t.Errorf("Fig1 samples diverged between 1 and 8 workers:\nseq: %v\npar: %v",
			seq.Samples, par.Samples)
	}
	if seq.Aggregate.Render() != par.Aggregate.Render() ||
		seq.PerWriter.Render() != par.PerWriter.Render() {
		t.Error("rendered figures diverged between 1 and 8 workers")
	}
}
