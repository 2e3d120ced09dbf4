//! # mimo-arch
//!
//! A Rust reproduction of *"Using Multiple Input, Multiple Output Formal
//! Control to Maximize Resource Efficiency in Architectures"* (Pothukuchi,
//! Ansari, Voulgaris, Torrellas — ISCA 2016).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`linalg`] — dense linear algebra (LU, QR, eigenvalues, SVD,
//!   frequency responses).
//! * [`sysid`] — black-box system identification (excitation signals, ARX
//!   least squares, state-space realization, validation).
//! * [`sim`] — the configurable out-of-order processor simulator (DVFS,
//!   cache way-gating, ROB resizing, power model, SPEC-like workloads).
//! * [`core`] — the paper's contribution: MIMO LQG tracking controllers,
//!   the optimizer, robust stability analysis, plus the Heuristic and
//!   Decoupled baselines.
//! * [`exp`] — the experiment harness that regenerates every figure and
//!   table of the paper's evaluation.
//! * [`fleet`] — the many-core runtime: per-core MIMO governors stepped
//!   in lock-step epochs under chip- and cluster-level power-budget
//!   arbiters (a single chip is a one-chip cluster).
//!
//! The [`telemetry`] facade re-exports the observability layer
//! (`mimo_core::telemetry`): the [`telemetry::Observer`] trait, the
//! ring-buffer [`telemetry::TelemetrySink`], and the JSONL trace exporter,
//! so application code can trace an epoch loop without naming the core
//! crate directly.
//!
//! The facade also defines the workspace-level [`Error`]/[`Result`] pair —
//! one sum type over every layer's error enum, with `From` conversions so
//! cross-layer application code can propagate any failure with `?`.
//!
//! # Quickstart
//!
//! ```
//! use mimo_arch::core::design::DesignFlow;
//! use mimo_arch::sim::{InputSet, ProcessorBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build the plant (processor + workload) and run the Figure 3 design
//! // flow: identify -> weight -> synthesize -> validate.
//! let mut plant = ProcessorBuilder::new()
//!     .app("namd")
//!     .seed(7)
//!     .input_set(InputSet::FreqCache)
//!     .build()?;
//! let design = DesignFlow::two_input().run(&mut plant)?;
//! let controller = design.into_controller();
//! assert_eq!(controller.num_inputs(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;

pub use error::{Error, Result};

pub use mimo_core as core;
pub use mimo_core::telemetry;
pub use mimo_exp as exp;
pub use mimo_fleet as fleet;
pub use mimo_linalg as linalg;
pub use mimo_sim as sim;
pub use mimo_sysid as sysid;
