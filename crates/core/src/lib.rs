//! # mimo-core
//!
//! The paper's contribution: MIMO control-theoretic controllers for
//! architectural resource management, plus the baseline controllers it is
//! evaluated against.
//!
//! * [`ss`] — discrete-time state-space systems (Equations 1–2).
//! * [`dare`] — discrete algebraic Riccati equation solver, the numerical
//!   core of LQG synthesis.
//! * [`lqr`] / [`kalman`] — optimal state feedback and state estimation.
//! * [`lqg`] — the MIMO LQG *tracking* controller of §III-A/§VI: Δu-form
//!   cost with designer weights Q (tracking error) and R (control effort),
//!   integral action for zero steady-state offset, Kalman state estimation,
//!   and quantization to the discrete actuator grids.
//! * [`weights`] — the qualitative weight methodology of Table II and the
//!   concrete weight sets of Tables III and V.
//! * [`robust`] — Robust Stability Analysis: closed-loop assembly and a
//!   small-gain test against the uncertainty guardbands (§IV-B4).
//! * [`optimizer`] — "Fast Optimization Leveraging Tracking" (§V): the
//!   high-level search that maximizes IPS^k/P to minimize E·D^(k−1).
//! * [`decoupled`] — the Decoupled baseline: two independent SISO LQG
//!   loops (cache→IPS, frequency→power).
//! * [`heuristic`] — the Heuristic baseline: offline-tuned feature ranking
//!   plus threshold rules (Zhang–Hoffmann-style).
//! * [`governor`] — the common per-epoch controller interface every
//!   architecture (Table IV) implements.
//! * [`engine`] — the unified epoch loop (decide → apply → record) that
//!   every driver, from the experiment runners to the fleet runtime,
//!   steps through; its hot path is allocation-free.
//! * [`telemetry`] — allocation-free epoch tracing and metrics behind the
//!   [`Observer`] API: ring-buffer traces, typed
//!   counters/histograms, and a JSONL exporter that drains outside the
//!   hot loop.
//! * [`design`] — the Figure 3 design flow: identify → weight → synthesize
//!   → validate → guardband → RSA, end to end against a live plant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dare;
pub mod decoupled;
pub mod design;
pub mod digest;
pub mod engine;
pub mod governor;
pub mod heuristic;
pub mod kalman;
pub mod lqg;
pub mod lqr;
pub mod optimizer;
pub mod robust;
pub mod ss;
pub mod storage;
pub mod telemetry;
pub mod weights;

mod error;

pub use digest::{digest_f64, Fnv1a};
pub use engine::{EpochCause, EpochError, EpochLoop, StepOutcome};
pub use error::ControlError;
pub use governor::{fast_governor, Governor};
pub use lqg::LqgController;
pub use ss::StateSpace;
pub use storage::{DynStore, LqgStorage, StaticStore};
pub use telemetry::{NullObserver, Observer, TelemetryConfig, TelemetrySink};

/// Convenient result alias for controller design operations.
pub type Result<T> = std::result::Result<T, ControlError>;
