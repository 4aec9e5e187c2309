#![warn(missing_docs)]

//! # axsbench — the repository's one benchmark
//!
//! Five workloads driven over the wire against an in-process `axsd`
//! server, eleven client-observed end-to-end metrics per workload, and a
//! per-layer budget measured from outside the layers: the benchmark's own
//! spans around public calls, before/after differences of the server's
//! `Metrics` opcode, and client round trips. `../BENCHMARK.json` declares
//! the names, units, directions and bounds; `README.md` explains every
//! metric and how to run, read and compare results.
//!
//! - [`gen`] — seeded inputs and the client-side shadow that knows every
//!   right answer;
//! - [`wire`] — the workloads: one *round* = set-up + main phase + panel +
//!   checks;
//! - [`layers`] — standalone probes per crate and the embedded replay;
//! - [`run`] — a run: rounds until the time is up, then the metrics;
//! - [`spans`], [`scrape`], [`stat`], [`cpu`], [`json`], [`spec`] — span
//!   recorder, `Metrics`-opcode differences, order statistics, thread
//!   placement, JSON, and the metric names.

pub mod cpu;
pub mod gen;
pub mod json;
pub mod layers;
pub mod run;
pub mod scrape;
pub mod spans;
pub mod spec;
pub mod stat;
pub mod wire;
