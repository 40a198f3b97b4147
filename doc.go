// Package xtsim is a deterministic simulator of the Cray XT3/XT4
// supercomputer family, built to reproduce every experiment in "Cray XT4:
// An Early Evaluation for Petascale Scientific Simulation" (Alam et al.,
// SC'07).
//
// This root package is the public API: machine presets (XT3, XT4,
// CombinedXT3XT4, the §6 comparison platforms), system construction
// (NewSystem), the simulated MPI runtime (RunMPI and the P communicator
// view), activity tracing (Recorder), the experiment registry
// (Experiments, RunExperiment) that regenerates each of the paper's
// tables and figures, and the concurrent campaign runner
// (ExperimentRunner) behind `xtsim -run all -jobs N`. The implementation
// lives in internal/ packages.
//
// # Architecture
//
// The layers build on each other, simulator core to paper artifacts:
//
//	sim ──► core ──► mpi ──► hpcc ─┐
//	 │        │        │           ├──► expt ──┬──► cmd/xtsim
//	 │        │        └──► apps ──┘           └──► serve ──► cmd/xtsim -serve
//	 │        └◄── machine, torus, network
//	 └──► lustre, trace
//
//   - internal/sim is the deterministic discrete-event engine: processes
//     as coroutines (iter.Pull), FIFO reservations,
//     processor-sharing resources.
//   - internal/machine, internal/torus and internal/network describe the
//     hardware: Table-1 machine configurations, the SeaStar 3-D torus,
//     and the transport model (injection bandwidth, link occupancy,
//     eager/rendezvous, VN-mode NIC sharing).
//   - internal/core places MPI tasks on a machine (SN/VN modes, shared
//     per-socket memory, roofline compute) on top of sim.
//   - internal/mpi is the simulated MPI runtime over core: point-to-point,
//     nonblocking, collectives as real algorithms with validated analytic
//     forms for 10k+ ranks.
//   - internal/hpcc runs the HPCC suite on the simulator (Figures 2-13)
//     using the real host-executable kernels in internal/kernels;
//     internal/apps holds the application proxies (CAM, POP, NAMD, S3D,
//     AORSA — Figures 14-23). internal/lustre models the filesystem.
//   - internal/expt is the campaign layer: one registered Experiment per
//     table/figure/ablation, each producing a structured Result, plus the
//     concurrent Runner with deterministic ordered output, a
//     completion-order streaming callback, stable result cache keys, and
//     JSON artifact export.
//   - internal/serve wraps the campaign layer in a long-running HTTP/JSON
//     service: memoized results (LRU keyed by experiment/options/code
//     version — exact because runs are deterministic), a bounded
//     admission queue with 429 backpressure, and per-job progress
//     streams. API.md is the endpoint reference.
//   - cmd/xtsim is the campaign CLI (-run, -jobs, -json, -timeout) and,
//     with -serve, the campaign server (-cache, -queue).
//
// The common path is three calls:
//
//	sys := xtsim.NewSystem(xtsim.XT4(), xtsim.VN, 64)
//	elapsed := xtsim.RunMPI(sys, xtsim.Auto, func(p *xtsim.P) {
//	    p.Compute(xtsim.Work{Flops: 100e6, StreamBytes: 10e6})
//	    p.Allreduce(xtsim.Sum, 8, []float64{1})
//	})
//	// elapsed is simulated seconds; runs are exactly reproducible.
//
// Beyond the library:
//
//   - cmd/xtsim regenerates every table and figure of the paper
//     (xtsim -list shows the registry; see DESIGN.md for the index).
//   - cmd/hpcckern characterises the host machine with the real HPCC-style
//     kernels.
//   - examples/ holds six runnable programs, including a tracing demo.
//   - bench_test.go at this root exposes one testing.B benchmark per paper
//     artifact.
//
// See README.md for a tour and EXPERIMENTS.md for paper-vs-simulated
// results and the JSON artifact schema.
package xtsim
