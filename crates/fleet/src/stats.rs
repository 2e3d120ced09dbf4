//! Per-core, per-chip, and cluster-aggregate run statistics.

use mimo_core::digest::Fnv1a;
use serde::Serialize;

use crate::arbiter::BudgetArbiter;
use crate::config::FleetConfig;

/// One chip's published window summary — the only state that crosses the
/// chip boundary at an epoch exchange.
///
/// `Copy` on purpose: a shard hands the cluster arbiter a snapshot, never
/// a reference into live chip state, so the exchange cannot observe a chip
/// mid-epoch and determinism cannot leak through aliasing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChipSummary {
    /// Chip index within the cluster.
    pub chip: usize,
    /// Cores on the chip.
    pub n_cores: usize,
    /// Epochs covered by this window (usually the exchange period; the
    /// final window may be shorter).
    pub window_epochs: u64,
    /// Mean measured chip power over the window, watts.
    pub avg_power_w: f64,
    /// Mean aggregate chip IPS over the window, BIPS.
    pub avg_ips: f64,
    /// Cores currently latched in quarantine.
    pub quarantined_cores: usize,
}

/// One core's accumulated statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoreStats {
    /// Core index within the fleet.
    pub core: usize,
    /// Application the core ran.
    pub app: String,
    /// Plant seed.
    pub seed: u64,
    /// Mean |IPS − target| / target over the run, percent, against the
    /// arbitrated (per-epoch) reference.
    pub avg_ips_err_pct: f64,
    /// Mean |power − target| / target over the run, percent.
    pub avg_power_err_pct: f64,
    /// Mean measured power, watts.
    pub avg_power_w: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Instructions executed, billions.
    pub instructions_g: f64,
    /// Epochs on which this core's pipeline faulted (the engine substituted
    /// last-good values).
    pub fault_epochs: u64,
    /// Whether the core ever crossed the quarantine threshold.
    pub quarantined: bool,
    /// Epoch at which the core first quarantined, if it ever did.
    pub quarantine_epoch: Option<u64>,
}

/// One chip's statistics for one run (an entry of
/// [`ClusterStats::per_chip`]).
///
/// Everything except the wall-clock field (`wall_s`) is a pure function of the configuration and seeds,
/// and therefore bit-identical run to run and at any cluster shard count;
/// `PartialEq` compares only the deterministic fields so runs can be
/// checked for reproducibility directly.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStats {
    /// Cores on the chip.
    pub n_cores: usize,
    /// Epochs run.
    pub epochs: usize,
    /// Arbitration policy label.
    pub policy: String,
    /// Chip power cap, watts.
    pub chip_cap_w: f64,
    /// Epochs in which measured chip power exceeded the cap.
    pub cap_violation_epochs: u64,
    /// Same as a percentage of all epochs.
    pub cap_violation_pct: f64,
    /// Mean measured chip power, watts.
    pub avg_chip_power_w: f64,
    /// Peak measured chip power in any epoch, watts.
    pub peak_chip_power_w: f64,
    /// Mean of the per-core IPS tracking errors, percent.
    pub agg_ips_err_pct: f64,
    /// Mean of the per-core power tracking errors, percent.
    pub agg_power_err_pct: f64,
    /// Total chip energy, joules.
    pub energy_j: f64,
    /// Total instructions, billions.
    pub instructions_g: f64,
    /// Cores that crossed the quarantine threshold during the run.
    pub quarantined_cores: usize,
    /// Total faulted epochs summed across cores.
    pub fault_epochs: u64,
    /// Arbiter grants issued below the nominal power target (one per
    /// throttled core per epoch).
    pub throttle_events: u64,
    /// Wall-clock time spent stepping this chip, seconds (not
    /// deterministic).
    pub wall_s: f64,
    /// Per-core breakdown.
    pub per_core: Vec<CoreStats>,
}

impl PartialEq for FleetStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything but the wall-clock field wall_s.
        self.n_cores == other.n_cores
            && self.epochs == other.epochs
            && self.policy == other.policy
            && self.chip_cap_w == other.chip_cap_w
            && self.cap_violation_epochs == other.cap_violation_epochs
            && self.avg_chip_power_w == other.avg_chip_power_w
            && self.peak_chip_power_w == other.peak_chip_power_w
            && self.agg_ips_err_pct == other.agg_ips_err_pct
            && self.agg_power_err_pct == other.agg_power_err_pct
            && self.energy_j == other.energy_j
            && self.instructions_g == other.instructions_g
            && self.quarantined_cores == other.quarantined_cores
            && self.fault_epochs == other.fault_epochs
            && self.throttle_events == other.throttle_events
            && self.per_core == other.per_core
    }
}

impl FleetStats {
    /// Order-independent digest of the deterministic fields (exact f64 bit
    /// patterns), for compact reproducibility checks in CSV output.
    ///
    /// The quarantine/fault/throttle bookkeeping is deliberately excluded:
    /// the digest pins golden values recorded before those counters
    /// existed, and fault-free runs must keep reproducing them bit for
    /// bit. `PartialEq` does compare those fields.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.n_cores as u64);
        h.write_u64(self.epochs as u64);
        h.write_u64(self.cap_violation_epochs);
        h.write_f64(self.avg_chip_power_w);
        h.write_f64(self.peak_chip_power_w);
        h.write_f64(self.energy_j);
        h.write_f64(self.instructions_g);
        for c in &self.per_core {
            h.write_f64(c.avg_ips_err_pct);
            h.write_f64(c.avg_power_err_pct);
            h.write_f64(c.energy_j);
        }
        h.finish()
    }

    /// Assembles the chip's statistics from the drained per-core stats and
    /// the arbiter's chip-level accumulators.
    ///
    /// Called by [`Chip::into_results`](crate::Chip::into_results), which
    /// the cluster drain goes through.
    pub(crate) fn assemble(
        cfg: &FleetConfig,
        epochs: usize,
        arbiter: &BudgetArbiter,
        per_core: Vec<CoreStats>,
        wall_s: f64,
    ) -> FleetStats {
        let nf = per_core.len().max(1) as f64;
        FleetStats {
            n_cores: cfg.n_cores,
            epochs,
            policy: cfg.policy.label().to_string(),
            chip_cap_w: cfg.chip_power_cap_w,
            cap_violation_epochs: arbiter.violations(),
            cap_violation_pct: if epochs == 0 {
                0.0
            } else {
                100.0 * arbiter.violations() as f64 / epochs as f64
            },
            avg_chip_power_w: arbiter.avg_chip_power_w(),
            peak_chip_power_w: arbiter.peak_chip_power_w(),
            agg_ips_err_pct: per_core.iter().map(|c| c.avg_ips_err_pct).sum::<f64>() / nf,
            agg_power_err_pct: per_core.iter().map(|c| c.avg_power_err_pct).sum::<f64>() / nf,
            energy_j: per_core.iter().map(|c| c.energy_j).sum(),
            instructions_g: per_core.iter().map(|c| c.instructions_g).sum(),
            quarantined_cores: per_core.iter().filter(|c| c.quarantined).count(),
            fault_epochs: per_core.iter().map(|c| c.fault_epochs).sum(),
            throttle_events: arbiter.throttle_events(),
            wall_s,
            per_core,
        }
    }
}

/// Whole-cluster statistics for one hierarchical run.
///
/// As with [`FleetStats`], everything except the shard count and the
/// wall-clock fields is a pure function of the configuration and seeds —
/// bit-identical at any shard count — and `PartialEq` compares only those
/// deterministic fields.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterStats {
    /// Chips in the cluster.
    pub n_chips: usize,
    /// Total cores across all chips.
    pub total_cores: usize,
    /// Shards the chips were dealt into: the contiguous chunks actually
    /// stepped in parallel, which can be fewer than requested (4 chips at
    /// 3 shards deal as 2 + 2). Not deterministic-relevant.
    pub shards: usize,
    /// Chip epochs each chip ran.
    pub epochs: usize,
    /// Chip epochs between cluster budget exchanges.
    pub exchange_period: usize,
    /// Budget exchanges the cluster arbiter performed.
    pub exchanges: u64,
    /// Exchanges that actually moved at least one chip cap.
    pub rebudget_moves: u64,
    /// Datacenter-level power cap, watts.
    pub cluster_cap_w: f64,
    /// Sum of per-chip mean powers (chip order), watts.
    pub avg_cluster_power_w: f64,
    /// Largest window-mean cluster power seen at any exchange, watts.
    pub peak_window_power_w: f64,
    /// Mean of the per-chip aggregate IPS tracking errors, percent.
    pub agg_ips_err_pct: f64,
    /// Mean of the per-chip aggregate power tracking errors, percent.
    pub agg_power_err_pct: f64,
    /// Total cluster energy, joules.
    pub energy_j: f64,
    /// Total instructions, billions.
    pub instructions_g: f64,
    /// Cores quarantined anywhere in the cluster.
    pub quarantined_cores: usize,
    /// Faulted epochs summed across every core of every chip.
    pub fault_epochs: u64,
    /// Wall-clock duration of the cluster run, seconds (not deterministic).
    pub wall_s: f64,
    /// Per-chip breakdown, in chip order.
    pub per_chip: Vec<FleetStats>,
}

impl PartialEq for ClusterStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything but shards / wall_s (and, inside each
        // chip, FleetStats' own non-deterministic fields).
        self.n_chips == other.n_chips
            && self.total_cores == other.total_cores
            && self.epochs == other.epochs
            && self.exchange_period == other.exchange_period
            && self.exchanges == other.exchanges
            && self.rebudget_moves == other.rebudget_moves
            && self.cluster_cap_w == other.cluster_cap_w
            && self.avg_cluster_power_w == other.avg_cluster_power_w
            && self.peak_window_power_w == other.peak_window_power_w
            && self.agg_ips_err_pct == other.agg_ips_err_pct
            && self.agg_power_err_pct == other.agg_power_err_pct
            && self.energy_j == other.energy_j
            && self.instructions_g == other.instructions_g
            && self.quarantined_cores == other.quarantined_cores
            && self.fault_epochs == other.fault_epochs
            && self.per_chip == other.per_chip
    }
}

impl ClusterStats {
    /// Order-independent digest of the deterministic cluster fields plus
    /// every chip's own [`FleetStats::digest`], for compact shard-count
    /// invariance checks in CSV output.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.n_chips as u64);
        h.write_u64(self.total_cores as u64);
        h.write_u64(self.epochs as u64);
        h.write_u64(self.exchange_period as u64);
        h.write_u64(self.exchanges);
        h.write_u64(self.rebudget_moves);
        h.write_f64(self.avg_cluster_power_w);
        h.write_f64(self.peak_window_power_w);
        h.write_f64(self.energy_j);
        h.write_f64(self.instructions_g);
        for chip in &self.per_chip {
            h.write_u64(chip.digest());
        }
        h.finish()
    }

    /// Assembles cluster statistics from the drained per-chip stats (in
    /// chip order) and the exchange bookkeeping.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        cluster_cap_w: f64,
        shards: usize,
        epochs: usize,
        exchange_period: usize,
        exchanges: u64,
        rebudget_moves: u64,
        peak_window_power_w: f64,
        per_chip: Vec<FleetStats>,
        wall_s: f64,
    ) -> ClusterStats {
        let nc = per_chip.len().max(1) as f64;
        ClusterStats {
            n_chips: per_chip.len(),
            total_cores: per_chip.iter().map(|c| c.n_cores).sum(),
            shards,
            epochs,
            exchange_period,
            exchanges,
            rebudget_moves,
            cluster_cap_w,
            avg_cluster_power_w: per_chip.iter().map(|c| c.avg_chip_power_w).sum(),
            peak_window_power_w,
            agg_ips_err_pct: per_chip.iter().map(|c| c.agg_ips_err_pct).sum::<f64>() / nc,
            agg_power_err_pct: per_chip.iter().map(|c| c.agg_power_err_pct).sum::<f64>() / nc,
            energy_j: per_chip.iter().map(|c| c.energy_j).sum(),
            instructions_g: per_chip.iter().map(|c| c.instructions_g).sum(),
            quarantined_cores: per_chip.iter().map(|c| c.quarantined_cores).sum(),
            fault_epochs: per_chip.iter().map(|c| c.fault_epochs).sum(),
            wall_s,
            per_chip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetStats {
        FleetStats {
            n_cores: 2,
            epochs: 10,
            policy: "uniform".into(),
            chip_cap_w: 2.4,
            cap_violation_epochs: 1,
            cap_violation_pct: 10.0,
            avg_chip_power_w: 2.0,
            peak_chip_power_w: 2.5,
            agg_ips_err_pct: 8.0,
            agg_power_err_pct: 4.0,
            energy_j: 0.001,
            instructions_g: 0.02,
            quarantined_cores: 0,
            fault_epochs: 0,
            throttle_events: 0,
            wall_s: 0.5,
            per_core: vec![CoreStats {
                core: 0,
                app: "astar".into(),
                seed: 3,
                avg_ips_err_pct: 8.0,
                avg_power_err_pct: 4.0,
                avg_power_w: 1.0,
                energy_j: 0.0005,
                instructions_g: 0.01,
                fault_epochs: 0,
                quarantined: false,
                quarantine_epoch: None,
            }],
        }
    }

    #[test]
    fn equality_ignores_timing() {
        let a = sample();
        let mut b = sample();
        b.wall_s = 99.0;
        assert_eq!(a, b);
        let mut c = sample();
        c.energy_j += 1e-9;
        assert_ne!(a, c);
    }

    #[test]
    fn digest_tracks_deterministic_fields_only() {
        let a = sample();
        let mut b = sample();
        b.wall_s = 42.0;
        assert_eq!(a.digest(), b.digest());
        let mut c = sample();
        c.per_core[0].avg_ips_err_pct += 0.25;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn digest_is_stable_across_quarantine_bookkeeping() {
        // The digest pins the pre-fault golden values; quarantine fields
        // are compared by PartialEq but deliberately NOT mixed into the
        // digest, so fault-free digests from older pins keep matching.
        let a = sample();
        let mut b = sample();
        b.quarantined_cores = 1;
        b.fault_epochs = 12;
        b.throttle_events = 7;
        b.per_core[0].quarantined = true;
        b.per_core[0].quarantine_epoch = Some(40);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a, b);
    }

    #[test]
    fn serializes_to_json_object() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"per_core\":[{"), "{json}");
        assert!(json.contains("\"app\":\"astar\""), "{json}");
    }

    fn cluster_sample() -> ClusterStats {
        ClusterStats::assemble(9.6, 2, 10, 5, 2, 1, 4.1, vec![sample(), sample()], 0.25)
    }

    #[test]
    fn cluster_equality_ignores_shards_and_timing() {
        let a = cluster_sample();
        let mut b = cluster_sample();
        b.shards = 8;
        b.wall_s = 99.0;
        b.per_chip[0].wall_s = 3.0;
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let mut c = cluster_sample();
        c.per_chip[1].energy_j += 1e-9;
        assert_ne!(a, c);
    }

    #[test]
    fn cluster_assemble_sums_in_chip_order() {
        let s = cluster_sample();
        assert_eq!(s.n_chips, 2);
        assert_eq!(s.total_cores, 4);
        assert_eq!(s.avg_cluster_power_w, 4.0);
        assert_eq!(s.energy_j, 0.002);
        assert_eq!(s.agg_ips_err_pct, 8.0);
        let mut h = Fnv1a::new();
        h.write_u64(2);
        h.write_u64(4);
        h.write_u64(10);
        h.write_u64(5);
        h.write_u64(2);
        h.write_u64(1);
        h.write_f64(4.0);
        h.write_f64(4.1);
        h.write_f64(0.002);
        h.write_f64(0.04);
        h.write_u64(sample().digest());
        h.write_u64(sample().digest());
        assert_eq!(s.digest(), h.finish());
    }
}
