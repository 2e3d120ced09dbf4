//! The cluster runtime: many chips, sharded, no global epoch barrier.
//!
//! [`ClusterRunner`] steps a [`ClusterConfig`]-shaped fleet of
//! [`Chip`]s. Chips are dealt to shard worker threads in
//! contiguous runs; each shard steps its chips through whole
//! *exchange windows* ([`ClusterConfig::exchange_period`] chip epochs)
//! back to back, so cores on different chips never synchronize
//! epoch-by-epoch. Shards rendezvous only at window boundaries, where the
//! last-arriving shard feeds every chip's published
//! [`ChipSummary`](crate::ChipSummary) to the
//! [`ClusterArbiter`] (merging in chip order) and
//! the fresh per-chip power caps are installed before the next window.
//!
//! Because each chip's science is a pure function of its own seed and its
//! cap schedule, and the cap schedule is a pure function of the summaries
//! merged in chip order, the resulting [`ClusterStats`] are bit-identical
//! at any shard count — and a cluster of one chip reproduces a single-chip
//! [`FleetRunner`](crate::FleetRunner) run exactly.

use std::time::Instant;

use mimo_core::governor::Governor;
use mimo_core::lqg::LqgController;
use mimo_core::telemetry::TelemetryConfig;
use mimo_sim::fault::FaultSpec;
use mimo_sim::llc::LlcConfig;
use mimo_sim::InputSet;

use crate::arbiter::{ArbitrationPolicy, ClusterArbiter, MIN_TARGET_FRACTION};
use crate::chip::Chip;
use crate::config::{CoreSpec, FleetConfig};
use crate::error::{FleetError, Result};
use crate::shard::run_sharded;
use crate::stats::ClusterStats;
use crate::telemetry::ClusterTelemetry;

/// Configuration of a [`ClusterRunner`]: a homogeneous grid of chips plus
/// the cluster-level budget policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of chips in the cluster.
    pub n_chips: usize,
    /// Cores on every chip.
    pub cores_per_chip: usize,
    /// Shard worker threads stepping whole chips. `0` means one per
    /// available hardware thread, capped at `n_chips`.
    pub shards: usize,
    /// Chip epochs each chip runs (50 µs each).
    pub epochs: usize,
    /// Chip epochs between cluster budget exchanges. Within a window the
    /// chips run completely barrier-free.
    pub exchange_period: usize,
    /// Datacenter-level power cap divided across chips, watts.
    pub cluster_power_cap_w: f64,
    /// How the cluster arbiter splits the cap across chips.
    pub policy: ArbitrationPolicy,
    /// How each chip's own arbiter splits its cap across cores.
    pub chip_policy: ArbitrationPolicy,
    /// Input set every per-core controller actuates.
    pub input_set: InputSet,
    /// Nominal per-core `[IPS (BIPS), power (W)]` targets.
    pub base_targets: [f64; 2],
    /// Base seed. Chip 0 derives exactly the base seed, so a one-chip
    /// cluster reuses a single-chip fleet's per-core seeds verbatim.
    pub seed: u64,
    /// Shared-LLC contention coupling, applied per chip (each chip gets
    /// its own independent [`SharedLlc`](mimo_sim::SharedLlc)).
    pub llc: Option<LlcConfig>,
    /// Workload mix every chip cycles through for its cores (same
    /// semantics as [`FleetConfig::apps`]; empty = responsive production
    /// set). Per-core seeds still derive from each chip's own seed, so
    /// chips run the same mix on distinct random streams.
    pub apps: Vec<String>,
    /// Explicit per-core assignments, applied to **every** chip verbatim
    /// (same semantics as [`FleetConfig::cores`] within a chip). Note an
    /// explicit [`CoreSpec::seed`] repeats on each chip; leave `cores`
    /// empty and use [`ClusterConfig::apps`] when chips should run
    /// distinct random streams.
    pub cores: Vec<CoreSpec>,
    /// Per-epoch transient fault probability on every core of every chip
    /// (same semantics as [`FleetConfig::fault_rate`]; each chip's
    /// injector draws from its own chip-seeded stream). `0.0` (the
    /// default) keeps runs bit-identical to a fault-free cluster.
    pub fault_rate: f64,
    /// Scheduled faults, as `(chip, core, fault window)` triples. Chips
    /// and cores not listed receive no scheduled faults.
    pub core_faults: Vec<(usize, usize, FaultSpec)>,
    /// Per-core telemetry, applied to every chip.
    pub telemetry: TelemetryConfig,
    /// Banked structure-of-arrays stepping on every chip (same semantics
    /// as [`FleetConfig::banked`]; applies to shared-controller clusters).
    pub banked: bool,
}

/// Seed stride between chips (an odd 64-bit constant, so the map from
/// chip index to seed-space offset is a bijection).
const CHIP_SEED_STRIDE: u64 = 0xA54F_F53A_5F1D_36F1;

impl ClusterConfig {
    /// A cluster of `n_chips` × `cores_per_chip` with the single-chip
    /// defaults on every chip and a cluster cap equal to the sum of the
    /// per-chip nominal caps (1.2 W/core).
    pub fn new(n_chips: usize, cores_per_chip: usize) -> Self {
        ClusterConfig {
            n_chips,
            cores_per_chip,
            shards: 1,
            epochs: 1000,
            exchange_period: 25,
            cluster_power_cap_w: 1.2 * (n_chips * cores_per_chip) as f64,
            policy: ArbitrationPolicy::Proportional,
            chip_policy: ArbitrationPolicy::Proportional,
            input_set: InputSet::FreqCache,
            base_targets: [3.0, 1.9],
            seed: 1,
            llc: None,
            apps: Vec::new(),
            cores: Vec::new(),
            fault_rate: 0.0,
            core_faults: Vec::new(),
            telemetry: TelemetryConfig::off(),
            banked: true,
        }
    }

    /// Enables or disables banked stepping on every chip (builder style;
    /// on by default).
    pub fn banked(mut self, banked: bool) -> Self {
        self.banked = banked;
        self
    }

    /// Sets the shard count (builder style).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the chip epoch count (builder style).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the exchange period (builder style).
    pub fn exchange_period(mut self, period: usize) -> Self {
        self.exchange_period = period;
        self
    }

    /// Sets the power cap this topology's arbiter divides — for a
    /// cluster, the datacenter-level cap in watts (builder style). Shares
    /// its name with [`FleetConfig::power_cap`], the same knob one level
    /// down, so one spec shape drives both.
    pub fn power_cap(mut self, watts: f64) -> Self {
        self.cluster_power_cap_w = watts;
        self
    }

    /// Alias of [`ClusterConfig::power_cap`] under the topology-specific
    /// name (builder style).
    pub fn cluster_power_cap(self, watts: f64) -> Self {
        self.power_cap(watts)
    }

    /// Sets the cluster-level arbitration policy (builder style).
    pub fn policy(mut self, policy: ArbitrationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-chip arbitration policy (builder style).
    pub fn chip_policy(mut self, policy: ArbitrationPolicy) -> Self {
        self.chip_policy = policy;
        self
    }

    /// Sets the input set (builder style).
    pub fn input_set(mut self, input_set: InputSet) -> Self {
        self.input_set = input_set;
        self
    }

    /// Sets the nominal per-core targets (builder style).
    pub fn base_targets(mut self, targets: [f64; 2]) -> Self {
        self.base_targets = targets;
        self
    }

    /// Sets the base seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables shared-LLC contention on every chip (builder style).
    pub fn llc_contention(mut self, llc: LlcConfig) -> Self {
        self.llc = Some(llc);
        self
    }

    /// Sets the workload mix for every chip (builder style). Same name
    /// and semantics as [`FleetConfig::apps`].
    pub fn apps<S: Into<String>>(mut self, apps: Vec<S>) -> Self {
        self.apps = apps.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the transient fault rate on every chip (builder style). Same
    /// name and semantics as [`FleetConfig::fault_rate`].
    pub fn fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate = rate;
        self
    }

    /// Sets explicit per-core assignments applied to every chip (builder
    /// style). Same name and semantics as [`FleetConfig::cores`].
    pub fn cores(mut self, cores: Vec<CoreSpec>) -> Self {
        self.cores = cores;
        self
    }

    /// Schedules a fault on one core of one chip (builder style; may be
    /// called repeatedly to stack faults). Same verb as
    /// [`FleetConfig::core_fault`], with a leading chip index because the
    /// cluster addresses cores two levels deep.
    pub fn core_fault(mut self, chip: usize, core: usize, spec: FaultSpec) -> Self {
        self.core_faults.push((chip, core, spec));
        self
    }

    /// Alias of [`ClusterConfig::core_fault`] under its original name
    /// (builder style).
    pub fn chip_core_fault(self, chip: usize, core: usize, spec: FaultSpec) -> Self {
        self.core_fault(chip, core, spec)
    }

    /// Attaches per-core telemetry to every chip (builder style).
    pub fn observer(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a zero-sized cluster, a
    /// zero exchange period, an explicit shard count exceeding the chip
    /// count, or a per-chip configuration the fleet layer rejects.
    pub fn validate(&self) -> Result<()> {
        if self.n_chips == 0 {
            return Err(FleetError::InvalidConfig {
                what: "n_chips must be at least 1".into(),
            });
        }
        if self.exchange_period == 0 {
            return Err(FleetError::InvalidConfig {
                what: "exchange_period must be at least 1 chip epoch".into(),
            });
        }
        if self.shards > self.n_chips {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "shards = {} exceeds n_chips = {}; use shards(0) for auto",
                    self.shards, self.n_chips
                ),
            });
        }
        let not_positive = |x: f64| x <= 0.0 || x.is_nan();
        if not_positive(self.cluster_power_cap_w) {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "cluster_power_cap_w = {} must be positive",
                    self.cluster_power_cap_w
                ),
            });
        }
        if let Some((chip, core, _)) = self
            .core_faults
            .iter()
            .find(|(chip, core, _)| *chip >= self.n_chips || *core >= self.cores_per_chip)
        {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "core_faults targets chip {chip} core {core}, but the cluster is \
                     {} chips x {} cores",
                    self.n_chips, self.cores_per_chip
                ),
            });
        }
        // Everything per-chip (core count, targets, LLC shape) is checked
        // by the fleet-config layer all chips share.
        self.chip_config(0).validate()
    }

    /// The effective shard count: explicit, or one per hardware thread,
    /// never more than there are chips.
    pub fn effective_shards(&self) -> usize {
        let requested = if self.shards == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.shards
        };
        requested.clamp(1, self.n_chips.max(1))
    }

    /// The base seed of chip `chip`. Identity for chip 0, and a bijection
    /// in the chip index, so per-chip seed streams never collide.
    pub fn chip_seed(&self, chip: usize) -> u64 {
        self.seed
            .wrapping_add((chip as u64).wrapping_mul(CHIP_SEED_STRIDE))
    }

    /// The fleet configuration of chip `chip`: single-chip defaults with
    /// this cluster's policy/targets/LLC and the chip-derived seed. The
    /// nominal per-chip power cap is the single-chip default (1.2 W/core);
    /// the cluster arbiter retunes the *actual* cap at every exchange.
    pub fn chip_config(&self, chip: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(self.cores_per_chip)
            .epochs(self.epochs)
            .policy(self.chip_policy)
            .input_set(self.input_set)
            .base_targets(self.base_targets)
            .seed(self.chip_seed(chip))
            .apps(self.apps.clone())
            .cores(self.cores.clone())
            .fault_rate(self.fault_rate)
            .observer(self.telemetry.clone())
            .banked(self.banked);
        cfg.llc = self.llc;
        for &(c, core, spec) in &self.core_faults {
            if c == chip {
                cfg = cfg.core_fault(core, spec);
            }
        }
        cfg
    }

    /// The per-chip floor the cluster arbiter never cuts below: every core
    /// pinned at the chip arbiter's own minimum power reference.
    pub fn chip_floor_w(&self) -> f64 {
        self.cores_per_chip as f64 * MIN_TARGET_FRACTION * self.base_targets[1]
    }
}

/// The single-chip lift: a one-chip cluster running the fleet's exact
/// configuration, so one spec shape drives both topologies.
///
/// Every shared knob carries over verbatim — core count, epochs, input
/// set, targets, seed (chip 0 reuses the base seed, so per-core seeds are
/// identical), policy (installed as the chip-level policy), workload mix,
/// explicit cores, fault plan (lifted to chip 0), transient rate, LLC,
/// and telemetry. The fleet's power cap becomes the cluster cap; with one
/// chip the cluster arbiter grants `min(cap, nominal)` clamped to the
/// floor at each exchange, so caps at or below the nominal 1.2 W/core
/// budget behave exactly as they did one level down. A fleet is one
/// serial chip, so the lifted cluster runs as one shard.
impl From<FleetConfig> for ClusterConfig {
    fn from(fleet: FleetConfig) -> Self {
        let mut cfg = ClusterConfig::new(1, fleet.n_cores)
            .epochs(fleet.epochs)
            .power_cap(fleet.chip_power_cap_w)
            .chip_policy(fleet.policy)
            .input_set(fleet.input_set)
            .base_targets(fleet.base_targets)
            .seed(fleet.seed)
            .apps(fleet.apps)
            .cores(fleet.cores)
            .fault_rate(fleet.fault_rate)
            .observer(fleet.telemetry)
            .banked(fleet.banked);
        cfg.llc = fleet.llc;
        for (core, spec) in fleet.core_faults {
            cfg = cfg.core_fault(0, core, spec);
        }
        cfg
    }
}

/// Steps a cluster of chips to completion, sharded across worker threads.
pub struct ClusterRunner {
    cfg: ClusterConfig,
    chips: Vec<Chip>,
    arbiter: ClusterArbiter,
}

impl ClusterRunner {
    /// Builds every chip of the cluster. The factory is called once per
    /// core as `factory(chip, core, spec)`, in chip order then core order,
    /// so governor construction is deterministic and may memoize.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for a bad cluster shape and
    /// propagates per-chip construction failures.
    pub fn new<F>(cfg: ClusterConfig, mut factory: F) -> Result<Self>
    where
        F: FnMut(usize, usize, &CoreSpec) -> Box<dyn Governor + Send>,
    {
        cfg.validate()?;
        let mut chips = Vec::with_capacity(cfg.n_chips);
        for chip in 0..cfg.n_chips {
            let chip_cfg = cfg.chip_config(chip);
            let mut per_core = |core: usize, spec: &CoreSpec| factory(chip, core, spec);
            chips.push(Chip::build(chip, chip_cfg, &mut per_core)?);
        }
        Self::assemble(cfg, chips)
    }

    /// The arbiter-construction tail shared by every build path.
    fn assemble(cfg: ClusterConfig, chips: Vec<Chip>) -> Result<Self> {
        let nominal: Vec<f64> = chips.iter().map(|c| 1.2 * c.n_cores() as f64).collect();
        let floors = vec![cfg.chip_floor_w(); cfg.n_chips];
        let priorities = vec![1.0; cfg.n_chips];
        let arbiter = ClusterArbiter::new(
            cfg.cluster_power_cap_w,
            cfg.policy,
            nominal,
            floors,
            priorities,
        );
        Ok(ClusterRunner {
            cfg,
            chips,
            arbiter,
        })
    }

    /// Builds a cluster whose every core runs a clone of one synthesized
    /// LQG controller — the deployment model of the `cluster_scale`
    /// experiment. Storage is chosen by
    /// [`mimo_core::governor::fast_governor`], exactly as the single-chip
    /// [`FleetRunner::with_shared_controller`](crate::FleetRunner::with_shared_controller)
    /// does.
    ///
    /// When the controller's shape is banked-capable (and
    /// [`ClusterConfig::banked`] is on), every chip additionally enrolls
    /// its cores in a [`GovernorBank`](crate::bank::GovernorBank) and
    /// steps them as one structure-of-arrays batch — bit-identical
    /// decisions, identical digests, less wall-clock.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterRunner::new`].
    pub fn with_shared_controller(cfg: ClusterConfig, ctrl: &LqgController) -> Result<Self> {
        cfg.validate()?;
        let mut chips = Vec::with_capacity(cfg.n_chips);
        for chip in 0..cfg.n_chips {
            chips.push(Chip::build_banked(chip, cfg.chip_config(chip), ctrl)?);
        }
        Self::assemble(cfg, chips)
    }

    /// The configuration this runner was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Runs the cluster and returns the statistics.
    ///
    /// # Errors
    ///
    /// Currently infallible after construction; the `Result` mirrors
    /// [`FleetRunner::run`](crate::FleetRunner::run) for API symmetry.
    pub fn run(self) -> Result<ClusterStats> {
        self.run_traced().map(|(stats, _)| stats)
    }

    /// Runs the cluster and returns statistics plus drained telemetry
    /// (empty unless the config enables it).
    ///
    /// # Errors
    ///
    /// Currently infallible after construction.
    pub fn run_traced(mut self) -> Result<(ClusterStats, ClusterTelemetry)> {
        let started = Instant::now();
        let outcome = run_sharded(
            &mut self.chips,
            &mut self.arbiter,
            self.cfg.epochs,
            self.cfg.exchange_period,
            self.cfg.effective_shards(),
        );
        let wall_s = started.elapsed().as_secs_f64();
        let mut per_chip = Vec::with_capacity(self.chips.len());
        let mut per_chip_tele = Vec::with_capacity(self.chips.len());
        for chip in self.chips {
            let (stats, tele) = chip.into_results();
            per_chip.push(stats);
            per_chip_tele.push(crate::telemetry::FleetTelemetry::from_cores(tele));
        }
        let stats = ClusterStats::assemble(
            self.cfg.cluster_power_cap_w,
            outcome.shards,
            self.cfg.epochs,
            self.cfg.exchange_period,
            outcome.exchanges,
            outcome.rebudget_moves,
            outcome.peak_window_power_w,
            per_chip,
            wall_s,
        );
        Ok((stats, ClusterTelemetry::from_chips(per_chip_tele)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FleetRunner;
    use mimo_core::governor::FixedGovernor;
    use mimo_linalg::Vector;
    use mimo_sim::llc::LlcConfig;

    fn fixed() -> Box<dyn Governor + Send> {
        Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])))
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(ClusterConfig::new(0, 4).validate().is_err());
        assert!(ClusterConfig::new(2, 0).validate().is_err());
        assert!(ClusterConfig::new(2, 4)
            .exchange_period(0)
            .validate()
            .is_err());
        assert!(ClusterConfig::new(2, 4).shards(3).validate().is_err());
        assert!(ClusterConfig::new(2, 4).shards(2).validate().is_ok());
        assert!(ClusterConfig::new(2, 4).shards(0).validate().is_ok());
        assert!(ClusterConfig::new(1, 1).validate().is_ok());
    }

    #[test]
    fn chip_zero_seed_is_the_base_seed() {
        let cfg = ClusterConfig::new(4, 2).seed(7);
        assert_eq!(cfg.chip_seed(0), 7);
        // And distinct per chip.
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(cfg.chip_seed(i), cfg.chip_seed(j));
            }
        }
        // Chip 0's fleet config matches the plain single-chip config.
        let chip0 = cfg.chip_config(0);
        let plain = FleetConfig::new(2).epochs(1000).seed(7);
        assert_eq!(chip0, plain);
    }

    #[test]
    fn one_chip_cluster_matches_fleet_runner_bit_for_bit() {
        let ccfg = ClusterConfig::new(1, 4)
            .epochs(150)
            .exchange_period(25)
            .seed(7);
        let (cstats, _) = ClusterRunner::new(ccfg, |_, _, _| fixed())
            .unwrap()
            .run_traced()
            .unwrap();
        let fstats = FleetRunner::new(FleetConfig::new(4).epochs(150).seed(7), |_, _| fixed())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(cstats.n_chips, 1);
        assert_eq!(cstats.per_chip[0], fstats);
        assert_eq!(cstats.per_chip[0].digest(), fstats.digest());
        // 150 epochs at period 25 → 6 windows → 5 exchanges, none of which
        // can move a lone chip off its nominal cap.
        assert_eq!(cstats.exchanges, 5);
        assert_eq!(cstats.rebudget_moves, 0);
    }

    #[test]
    fn cluster_stats_are_shard_invariant() {
        // An even deal that ends on a full window, and an uneven deal of
        // 5 chips that ends on a short 5-epoch tail window. Each shard
        // count is paired with the chunks `chunks_mut(ceil(n / shards))`
        // actually deals, which the stats must report: 4 chips at 3
        // shards deal as 2 + 2.
        let cases = [
            (4, 60, &[(2, 2), (3, 2), (4, 4)][..]),
            (5, 65, &[(2, 2), (3, 3)][..]),
        ];
        for (n_chips, epochs, shard_counts) in cases {
            let mk = |shards| {
                ClusterConfig::new(n_chips, 2)
                    .epochs(epochs)
                    .exchange_period(10)
                    .shards(shards)
                    .llc_contention(LlcConfig::for_cores(2).total_ways(2))
                    .seed(11)
            };
            let base = ClusterRunner::new(mk(1), |_, _, _| fixed())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(base.shards, 1);
            assert_eq!(base.exchanges, epochs.div_ceil(10) as u64 - 1);
            for &(shards, dealt) in shard_counts {
                let other = ClusterRunner::new(mk(shards), |_, _, _| fixed())
                    .unwrap()
                    .run()
                    .unwrap();
                let what = format!("{n_chips} chips, shards = {shards}");
                assert_eq!(other.shards, dealt, "{what}");
                assert_eq!(base, other, "{what}");
                assert_eq!(base.digest(), other.digest(), "{what}");
            }
        }
    }

    #[test]
    fn fleet_config_lifts_to_a_one_chip_cluster() {
        use mimo_sim::fault::{FaultKind, FaultSpec};
        let spec = FaultSpec {
            kind: FaultKind::NanMeasurement { channel: 0 },
            start_epoch: 10,
            duration: 5,
        };
        let fleet = FleetConfig::new(4)
            .epochs(150)
            .seed(7)
            .power_cap(4.0)
            .policy(ArbitrationPolicy::Uniform)
            .apps(vec!["astar"])
            .fault_rate(0.01)
            .core_fault(2, spec);
        let cluster = ClusterConfig::from(fleet.clone());
        assert_eq!(cluster.n_chips, 1);
        assert_eq!(cluster.cores_per_chip, 4);
        assert_eq!(cluster.cluster_power_cap_w, 4.0);
        assert_eq!(cluster.chip_policy, ArbitrationPolicy::Uniform);
        assert_eq!(cluster.fault_rate, 0.01);
        assert_eq!(cluster.core_faults, vec![(0, 2, spec)]);
        cluster.validate().unwrap();
        // The lifted chip reproduces the fleet's own config, knob for
        // knob, apart from the power cap (which lifts to the cluster
        // arbiter; the chip keeps its nominal budget and the arbiter
        // grants `min(cap, nominal)` at each exchange).
        let chip0 = cluster.chip_config(0);
        let nominal_cap = chip0.chip_power_cap_w;
        assert_eq!(chip0, fleet.clone().power_cap(nominal_cap));
    }

    #[test]
    fn lifted_cluster_reproduces_the_fleet_run_bit_for_bit() {
        let fleet = FleetConfig::new(4).epochs(150).seed(7);
        let fstats = FleetRunner::new(fleet.clone(), |_, _| fixed())
            .unwrap()
            .run()
            .unwrap();
        let cstats = ClusterRunner::new(ClusterConfig::from(fleet), |_, _, _| fixed())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(cstats.per_chip[0], fstats);
        assert_eq!(cstats.per_chip[0].digest(), fstats.digest());
    }

    #[test]
    fn tight_cluster_cap_throttles_chips() {
        // Cap the cluster at half the nominal sum: the arbiter must cut
        // every chip below nominal and the chips must still track.
        let cfg = ClusterConfig::new(2, 2)
            .epochs(50)
            .exchange_period(10)
            .cluster_power_cap(0.5 * 1.2 * 4.0)
            .seed(3);
        let stats = ClusterRunner::new(cfg, |_, _, _| fixed())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(stats.exchanges, 4);
        assert!(stats.rebudget_moves >= 1);
        // Each chip's configured cap reflects the cluster grant, not the
        // nominal 2.4 W.
        for chip in &stats.per_chip {
            assert!(chip.chip_cap_w <= 2.4);
        }
        assert!(stats.peak_window_power_w > 0.0);
    }
}
