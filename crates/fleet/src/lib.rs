//! Many-core fleet runtime: per-core MIMO control under chip and cluster
//! power budgets.
//!
//! The paper designs one MIMO LQG controller per core. This crate scales
//! that to many cores: N independent plants per [`Chip`], each tracking
//! `[IPS, power]` references with its own governor, stepped in lock-step
//! 50 µs epochs by one serial chip beat ([`Chip::step_epoch`]), with a
//! chip-level [`BudgetArbiter`] that redistributes each core's references
//! every epoch so the summed power respects the chip cap — the
//! decentralized coordination sketched in the paper's §VII discussion of
//! multicore deployment.
//!
//! There is one runtime, [`ClusterRunner`]: a
//! [`Cluster`](ClusterConfig) of chips, each chip keeping its own serial
//! beat while whole chips are sharded across worker threads with **no
//! global per-epoch barrier** — shards are the runtime's only
//! parallelism. A [`ClusterArbiter`] re-divides the datacenter power cap
//! across chips only every
//! [`exchange_period`](ClusterConfig::exchange_period) chip epochs, from
//! each chip's last published [`ChipSummary`]. A single chip is the
//! one-chip cluster `ClusterConfig::new(1, cores)`, whose chip runs under
//! the configured cap clamped to its nominal 1.2 W/core budget.
//!
//! Determinism is a design invariant: per-core seeds derive only from the
//! base seed, the chip index and the core index, and arbitration reduces
//! in core order and then chip order, so a run's [`ClusterStats`] (and
//! every chip's [`FleetStats`]) are a pure function of its configuration
//! at any shard count.
//!
//! # Example
//!
//! ```
//! use mimo_fleet::{ArbitrationPolicy, ClusterConfig, ClusterRunner};
//! use mimo_core::governor::FixedGovernor;
//! use mimo_linalg::Vector;
//!
//! let cfg = ClusterConfig::new(1, 4)
//!     .epochs(100)
//!     .chip_policy(ArbitrationPolicy::Proportional);
//! let cluster = ClusterRunner::new(cfg, |_, _, _| {
//!     Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])))
//! })
//! .unwrap();
//! let stats = cluster.run().unwrap();
//! assert_eq!(stats.per_chip[0].n_cores, 4);
//! ```
//!
//! To watch a run, enable telemetry in the config
//! ([`ClusterConfig::observer`]) and use [`ClusterRunner::run_traced`]:
//! every core carries its own ring-buffer
//! [`TelemetrySink`](mimo_core::telemetry::TelemetrySink), and the
//! returned [`ClusterTelemetry`] holds, per chip, a [`FleetTelemetry`]
//! with each core's recent epoch records, quarantine events, and merged
//! metrics — with JSONL export that drains strictly outside the hot loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod bank;
pub mod chip;
pub mod cluster;
pub mod config;
pub mod error;
mod shard;
pub mod stats;
pub mod telemetry;

pub use arbiter::{ArbitrationPolicy, BudgetArbiter, ClusterArbiter, CoreObs};
pub use bank::GovernorBank;
pub use chip::Chip;
pub use cluster::{ClusterConfig, ClusterRunner};
pub use config::{default_fleet_apps, CoreSpec, FleetConfig};
pub use error::{FleetError, Result};
pub use stats::{ChipSummary, ClusterStats, CoreStats, FleetStats};
pub use telemetry::{ClusterTelemetry, CoreTelemetry, FleetTelemetry};
