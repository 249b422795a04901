//! # hydra-benchmark
//!
//! The end-to-end benchmark of the HYDRA regeneration server: it spawns the
//! real `hydra-serve` binary, drives it over both wire protocols from at
//! most two client threads, checks every reply, and reports the metrics
//! named in the repository's `BENCHMARK.json`.  `BENCHMARK.md` next to this
//! crate's manifest defines every metric and says how to run, repeat and
//! compare.

#![warn(missing_docs)]

pub mod catalog;
pub mod inputs;
pub mod report;
pub mod server;
pub mod session;
pub mod stats;
pub mod trace;
pub mod wire;
