//! The single-chip fleet runtime: one [`Chip`] stepped serially.
//!
//! Every core owns a plant and a governor. A fleet run is a loop of
//! [`Chip::step_epoch`] calls, one per 50 µs epoch, each the chip's one
//! beat: step every core in core order, arbitrate over the core-indexed
//! observation table (refreshing the shared-LLC penalties when the config
//! enables contention), retarget. Fleets built from one shared controller
//! step their healthy cores through a structure-of-arrays
//! [`GovernorBank`](crate::GovernorBank), bit-identical to per-cell
//! stepping; quarantined cores are evicted to the per-cell path.
//!
//! A chip epoch is a few microseconds of serial work, so the beat runs on
//! the calling thread. Parallelism lives one level up: the
//! [`ClusterRunner`](crate::ClusterRunner) steps whole chips on shard
//! threads, and a one-chip cluster reproduces a fleet run bit for bit.
//!
//! Determinism: core seeds derive from the base seed and core index only,
//! and the arbiter reduces in core order, so a run's [`FleetStats`] are a
//! pure function of its configuration.

use std::time::Instant;

use mimo_core::governor::Governor;
use mimo_core::lqg::LqgController;

use crate::chip::Chip;
use crate::config::{CoreSpec, FleetConfig};
use crate::error::Result;
use crate::stats::FleetStats;
use crate::telemetry::FleetTelemetry;

/// Runs a fleet of independently governed cores under one chip budget.
pub struct FleetRunner {
    chip: Chip,
    epochs: usize,
}

impl FleetRunner {
    /// Builds the fleet, creating each core's governor through `factory`
    /// (called with the core index and resolved spec).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`](crate::FleetError::InvalidConfig) for a bad configuration or a
    /// governor whose input count does not match the plant, and
    /// [`FleetError::Sim`](crate::FleetError::Sim) if a plant or the
    /// LLC-contention model fails to build.
    pub fn new<F>(cfg: FleetConfig, mut factory: F) -> Result<Self>
    where
        F: FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send>,
    {
        let epochs = cfg.epochs;
        Ok(FleetRunner {
            chip: Chip::build(0, cfg, &mut factory)?,
            epochs,
        })
    }

    /// Builds the fleet with every core running a clone of one synthesized
    /// MIMO controller — the paper's deployment model, where a single
    /// offline design is replicated across homogeneous cores.
    ///
    /// Each per-core clone is wrapped by
    /// [`mimo_core::governor::fast_governor`], so controllers whose shape
    /// matches a reference architecture step on stack-allocated fixed-size
    /// kernels. When [`FleetConfig::banked`] is on (the default) and the
    /// shape matches, the healthy cores additionally step as one
    /// structure-of-arrays [`GovernorBank`](crate::GovernorBank) batch.
    /// Both fast paths are bit-identical to the dynamic per-cell one — the
    /// fleet digests do not move.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetRunner::new`].
    pub fn with_shared_controller(cfg: FleetConfig, ctrl: &LqgController) -> Result<Self> {
        let epochs = cfg.epochs;
        Ok(FleetRunner {
            chip: Chip::build_banked(0, cfg, ctrl)?,
            epochs,
        })
    }

    /// Number of cores in the fleet.
    pub fn n_cores(&self) -> usize {
        self.chip.n_cores()
    }

    /// Runs the configured number of epochs and returns fleet statistics.
    ///
    /// # Errors
    ///
    /// None today: construction already validated the configuration. The
    /// `Result` keeps the signature shared with [`FleetRunner::run_traced`]
    /// and the cluster runtime.
    pub fn run(self) -> Result<FleetStats> {
        self.run_traced().map(|(stats, _)| stats)
    }

    /// Like [`FleetRunner::run`], but also returns the run's
    /// [`FleetTelemetry`] — populated per-core when the config enabled
    /// telemetry via [`FleetConfig::observer`], empty otherwise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FleetRunner::run`].
    pub fn run_traced(mut self) -> Result<(FleetStats, FleetTelemetry)> {
        let started = Instant::now();
        for _ in 0..self.epochs {
            self.chip.step_epoch();
        }
        self.chip.add_wall(started.elapsed().as_secs_f64());
        let (stats, telemetry) = self.chip.into_results();
        Ok((stats, FleetTelemetry::from_cores(telemetry)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbitrationPolicy;
    use crate::error::FleetError;
    use mimo_core::governor::FixedGovernor;
    use mimo_linalg::Vector;
    use mimo_sim::llc::LlcConfig;

    fn fixed_factory() -> impl FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send> {
        |_, _| Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])))
    }

    fn small() -> FleetConfig {
        FleetConfig::new(4)
            .epochs(80)
            .policy(ArbitrationPolicy::Proportional)
            .seed(7)
    }

    #[test]
    fn reruns_are_bit_identical() {
        let run = || {
            FleetRunner::new(small(), fixed_factory())
                .unwrap()
                .run()
                .unwrap()
        };
        let (one, two) = (run(), run());
        assert_eq!(one, two);
        assert_eq!(one.digest(), two.digest());
    }

    #[test]
    fn contended_fleet_is_deterministic_and_contention_bites() {
        // 1 way/core of budget vs the 6 ways/core the governor holds:
        // sustained contention, still bit-identical run to run.
        let tight = LlcConfig::for_cores(4).total_ways(4);
        let run = || {
            FleetRunner::new(small().llc_contention(tight), fixed_factory())
                .unwrap()
                .run()
                .unwrap()
        };
        let (one, two) = (run(), run());
        assert_eq!(one, two);
        assert_eq!(one.digest(), two.digest());
        // And the contention must actually bite.
        let plain = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(one.digest(), plain.digest());
    }

    #[test]
    fn stats_cover_all_cores_and_accumulate_energy() {
        let stats = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(stats.n_cores, 4);
        assert_eq!(stats.per_core.len(), 4);
        assert_eq!(stats.epochs, 80);
        assert!(stats.energy_j > 0.0);
        assert!(stats.instructions_g > 0.0);
        assert!(stats.avg_chip_power_w > 0.0);
        assert!(stats.peak_chip_power_w >= stats.avg_chip_power_w);
        for (i, c) in stats.per_core.iter().enumerate() {
            assert_eq!(c.core, i);
            assert!(c.avg_power_w > 0.0, "{c:?}");
        }
    }

    #[test]
    fn different_seed_changes_results() {
        let a = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        let b = FleetRunner::new(small().seed(8), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(a, b);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn governor_plant_input_mismatch_rejected() {
        let cfg = small(); // FreqCache → 2 inputs
        let err = FleetRunner::new(cfg, |_, _| {
            Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0, 48.0])))
        });
        assert!(matches!(err, Err(FleetError::InvalidConfig { .. })));
    }

    #[test]
    fn traced_run_matches_untraced_digest_and_fills_telemetry() {
        use mimo_core::telemetry::TelemetryConfig;
        let plain = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        let (traced, telemetry) = FleetRunner::new(
            small().observer(TelemetryConfig::trace(32)),
            fixed_factory(),
        )
        .unwrap()
        .run_traced()
        .unwrap();
        // Observing must not perturb the control pipeline.
        assert_eq!(plain, traced);
        assert_eq!(plain.digest(), traced.digest());
        assert!(telemetry.is_enabled());
        assert_eq!(telemetry.per_core.len(), 4);
        assert_eq!(telemetry.metrics.epochs, 4 * 80);
        for (i, core) in telemetry.per_core.iter().enumerate() {
            assert_eq!(core.core, i);
            assert_eq!(core.metrics.epochs, 80);
            assert_eq!(core.trace.len(), 32);
            // Ring keeps the newest records.
            assert_eq!(core.trace.last().unwrap().epoch, 79);
            assert_eq!(core.summary.unwrap().epochs, 80);
        }
        // Untraced runs return an empty (disabled) telemetry.
        let (_, empty) = FleetRunner::new(small(), fixed_factory())
            .unwrap()
            .run_traced()
            .unwrap();
        assert!(!empty.is_enabled());
    }

    #[test]
    fn telemetry_is_identical_across_reruns() {
        use mimo_core::telemetry::TelemetryConfig;
        let traced = || {
            FleetRunner::new(
                small().observer(TelemetryConfig::trace(16)),
                fixed_factory(),
            )
            .unwrap()
            .run_traced()
            .unwrap()
            .1
        };
        let (one, two) = (traced(), traced());
        // Merged metrics reduce in core order, so the fleet view is
        // bit-identical run to run.
        assert_eq!(one.metrics, two.metrics);
        for (a, b) in one.per_core.iter().zip(&two.per_core) {
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.trace, b.trace);
            assert_eq!(a.quarantine, b.quarantine);
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        one.write_jsonl(&mut a).unwrap();
        two.write_jsonl(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_epochs_returns_zeroed_stats() {
        let stats = FleetRunner::new(small().epochs(0), fixed_factory())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(stats.epochs, 0);
        assert_eq!(stats.cap_violation_epochs, 0);
        assert_eq!(stats.energy_j, 0.0);
        assert_eq!(stats.agg_ips_err_pct, 0.0);
    }
}
