// Package repro is a from-scratch Go reproduction of Lofstead et al.,
// "Managing Variability in the IO Performance of Petascale Storage
// Systems" (SC 2010): the adaptive IO method of the ADIOS middleware,
// together with every substrate it runs on, simulated deterministically —
// a parallel file system with contention-sensitive storage targets, an
// MPI-like rank substrate, production background noise, the IOR benchmark,
// and the Pixie3D/XGC1 workloads.
//
// Public entry points:
//
//   - repro/cluster — construct simulated machines (Jaguar, Franklin, XTP,
//     Intrepid presets or custom), interference, tracing, rank worlds.
//   - repro/adios — the middleware facade: output steps through the MPI-IO
//     baseline, POSIX, data staging, or the paper's adaptive method; BP
//     index access and the restart-read path.
//   - repro/metrics — result tables, figures, and histograms.
//
// Campaigns (many independent replicas of a simulation) run concurrently on
// internal/runner's worker pool with results bit-identical to sequential
// execution; all experiment drivers and the repro CLI expose this via
// Parallel options and the -parallel flag.
//
// Every experiment is described by a declarative spec (internal/scenario):
// machine, workload, transport, interference model, grid axes, and sample
// count, validated before execution and runnable from any CLI via
// -scenario name|file.json with -set axis=value overrides. The paper's
// drivers are registered specs; examples/custom.json shows a combination
// no paper experiment covers.
//
// The benchmark harness in bench_test.go regenerates every table and
// figure of the paper (see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured values); cmd/repro runs the whole
// reproduction in one command.
package repro
