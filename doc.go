// Package repro reproduces "Slim NoC: A Low-Diameter On-Chip Network
// Topology for High Energy Efficiency and Scalability" (ASPLOS 2018).
//
// The public API is the slimnoc package: declarative, JSON-round-trippable
// run specs and sweep campaigns, string-keyed registries for topologies /
// layouts / routing algorithms / traffic patterns / buffering schemes, a
// context-aware Runner with streaming progress, and a parallel Campaign
// engine that executes whole evaluation grids with deterministic per-point
// seeds. Campaigns are restartable: slimnoc/store is a content-addressed
// JSONL result store (points keyed by the hash of their expanded spec plus
// the engine version), and a Campaign with WithStore skips stored points
// and durably appends fresh ones, so an interrupted sweep resumes
// byte-identically. Start there (and with README.md, which maps every
// registry name to its paper section).
//
// The implementation lives under internal/: the Slim NoC construction and
// layout models in internal/core, the finite fields in internal/gf, the
// baseline topologies in internal/topo, the cycle-accurate simulator in
// internal/sim (an active-set engine whose steady-state loop is
// allocation-free), the static-route compiler in internal/routing (whose
// RouteTable interns per-pair paths that packets borrow and campaigns
// share), the DSENT-substitute power models in internal/power, and the
// reproduction manifest in internal/exp, which declares every figure once:
// its declarative sweeps, the derivation of its tables and the paper's
// claims about them (consumed by cmd/snrepro, the resumable
// paper-reproduction driver; see docs/REPRODUCING.md). The root package
// holds the benchmark harness (bench_test.go) that regenerates every
// derived table of the paper's evaluation and reports its claims' values,
// plus local engine/campaign profiling benchmarks; `go run ./benchmark` is
// the measurement of record. Run `go run ./cmd/snrepro -list` for the
// reproducible-figure manifest.
package repro
