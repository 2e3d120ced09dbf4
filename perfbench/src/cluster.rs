//! The `cluster-track` and `cluster-hold` workloads.
//!
//! Every core runs the paper's two-input controller designed at
//! [`DEFAULT_SEED`]; the workload seed drives the cluster's plants and,
//! for `cluster-hold`, its faults.
//!
//! Untraced, each repetition synthesizes the shared controller, builds the
//! cluster through `ClusterRunner::with_shared_controller` (the deployment
//! path of the `cluster-scale` experiment) and runs it; set-up and stepping
//! are timed apart and host-normalized (see [`crate::calib`]). That path builds its chips with `Chip::build_banked`:
//! every healthy core decides and retargets inside the chip's
//! `GovernorBank`, and only cores evicted on quarantine step their own
//! boxed governor.
//!
//! Traced, each repetition runs the cluster four ways, all on that banked
//! path, and requires all four to produce the same per-chip `FleetStats`
//! digests:
//! 1. the untraced sharded runner (shard wait share, fault counts);
//! 2. a serial driver over `Chip::build_banked` chips (the untraced
//!    baseline of the tracing overhead);
//! 3. the same driver timing every `Chip::step_epoch` and
//!    `ClusterArbiter::rebudget` and counting `step_epoch` allocations;
//! 4. a chip beat composed here from `GovernorBank`, `EpochLoop`,
//!    `ProcessorBuilder`, `FaultInjector`, `BudgetArbiter` and `SharedLlc`,
//!    which splits the chip's own time into bank, governor, plant, engine,
//!    arbiter and LLC.

use std::time::Instant;

use mimo_core::engine::{fleet_warmup, EpochLoop, StepOutcome, TrackingErrorAccumulator};
use mimo_core::governor::{fast_governor, Governor};
use mimo_core::heuristic::{HeuristicTracker, SensitivityRanking};
use mimo_core::{Fnv1a, LqgController};
use mimo_exp::setup;
use mimo_fleet::{
    ArbitrationPolicy, BudgetArbiter, Chip, ChipSummary, ClusterArbiter, ClusterConfig,
    ClusterRunner, CoreObs, CoreSpec, FleetConfig, GovernorBank,
};
use mimo_linalg::Vector;
use mimo_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec};
use mimo_sim::llc::{LlcConfig, SharedLlc};
use mimo_sim::{InputSet, Processor, ProcessorBuilder};

use crate::calib::HostClock;
use crate::design::{compose, fingerprint, record_design_spans, DesignOp};
use crate::metrics::Report;
use crate::probe::{
    count_allocs, elapsed_ns, take_spans, Span, SpanCost, TimedGovernor, TimedPlant,
};
use crate::stats::median;
use crate::{mix, Deadline, DEFAULT_SEED};

/// Chips per cluster.
const CHIPS: usize = 16;
/// Cores per chip.
const CORES: usize = 16;
/// Chip epochs per repetition.
const EPOCHS: usize = 400;
/// `ClusterStats::digest` of each workload's cluster at [`DEFAULT_SEED`],
/// recorded on the commit that introduced this benchmark.
const PINNED_DIGESTS: [(Shape, u64); 2] = [
    (Shape::Track, 0x2e11_3f21_697a_86ae),
    (Shape::Hold, 0x5631_b453_84f6_b70d),
];
/// Epoch length of each random transient fault; mirrors the fleet
/// runtime's `TRANSIENT_FAULT_EPOCHS`, which the composed beat must match.
const TRANSIENT_FAULT_EPOCHS: u64 = 3;

/// The two cluster workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Proportional policies, 2 shards: every target moves every epoch.
    Track,
    /// Uniform policies, 1 shard, faults: targets hold.
    Hold,
}

/// The two cores of `cluster-hold` whose power sensor reads NaN from
/// mid-run on, as distinct `(chip, core)` pairs derived from the seed.
fn faulty_cores(seed: u64) -> [(usize, usize); 2] {
    let a = mix(seed, 101);
    let b = mix(seed, 202);
    let chip_a = (a % CHIPS as u64) as usize;
    let chip_b = (chip_a + 1 + (b % (CHIPS as u64 - 1)) as usize) % CHIPS;
    let core = |x: u64| ((x >> 32) % CORES as u64) as usize;
    [(chip_a, core(a)), (chip_b, core(b))]
}

/// The cluster configuration of a workload.
fn config(shape: Shape, seed: u64) -> ClusterConfig {
    let base = ClusterConfig::new(CHIPS, CORES)
        .epochs(EPOCHS)
        .llc_contention(LlcConfig::for_cores(CORES).total_ways(4 * CORES))
        .seed(seed);
    match shape {
        Shape::Track => base
            .policy(ArbitrationPolicy::Proportional)
            .chip_policy(ArbitrationPolicy::Proportional)
            .shards(2),
        Shape::Hold => faulty_cores(seed).into_iter().fold(
            base.policy(ArbitrationPolicy::Uniform)
                .chip_policy(ArbitrationPolicy::Uniform)
                .shards(1)
                .fault_rate(0.002),
            |cfg, (chip, core)| {
                cfg.core_fault(
                    chip,
                    core,
                    FaultSpec {
                        kind: FaultKind::NanMeasurement { channel: 1 },
                        start_epoch: (EPOCHS / 2) as u64,
                        duration: u64::MAX,
                    },
                )
            },
        ),
    }
}

/// The deployed controller: the paper design at [`DEFAULT_SEED`]. The
/// workload seed varies the cluster's plants and faults, not the
/// controller every core runs.
fn design() -> Result<LqgController, String> {
    setup::design_mimo(InputSet::FreqCache, DEFAULT_SEED)
        .map(|d| d.controller)
        .map_err(|e| format!("controller design: {e}"))
}

/// Checks one untraced run's statistics; returns its digest.
fn check_stats(shape: Shape, s: &mimo_fleet::ClusterStats) -> Result<u64, String> {
    let per_core = s
        .per_chip
        .iter()
        .flat_map(|c| &c.per_core)
        .flat_map(|k| [k.avg_ips_err_pct, k.avg_power_err_pct, k.energy_j]);
    let totals = [
        s.agg_ips_err_pct,
        s.agg_power_err_pct,
        s.energy_j,
        s.instructions_g,
        s.avg_cluster_power_w,
        s.peak_window_power_w,
    ];
    if !totals.into_iter().chain(per_core).all(f64::is_finite) {
        return Err("cluster statistics hold a non-finite value".into());
    }
    let faults_ok = match shape {
        Shape::Track => s.quarantined_cores == 0 && s.fault_epochs == 0,
        Shape::Hold => s.quarantined_cores >= 2 && s.fault_epochs > 0,
    };
    if !faults_ok {
        return Err(format!(
            "{shape:?} cluster reports {} quarantined cores, {} fault epochs",
            s.quarantined_cores, s.fault_epochs
        ));
    }
    Ok(s.digest())
}

/// Builds and runs one cluster through the public runner; returns the
/// set-up and stepping times with the statistics.
fn run_once(cfg: &ClusterConfig) -> Result<(f64, f64, mimo_fleet::ClusterStats), String> {
    let t0 = Instant::now();
    let runner = design().and_then(|ctrl| {
        ClusterRunner::with_shared_controller(cfg.clone(), &ctrl).map_err(|e| e.to_string())
    })?;
    let t1 = Instant::now();
    let stats = runner.run().map_err(|e| e.to_string())?;
    Ok(((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64(), stats))
}

/// Cluster seeds a run cycles through, derived from the workload seed:
/// averaging over several clusters keeps a run's figures from hinging on
/// one draw of plants.
const SUB_SEEDS: u64 = 8;

/// Runs the untraced workload: first the pinned check at [`DEFAULT_SEED`]
/// (untimed; it also warms the process up), then repetitions of
/// synthesize → build → run cycling through [`SUB_SEEDS`] cluster seeds
/// until the deadline, at least one full cycle.
pub fn run(shape: Shape, seed: u64, deadline: &Deadline, report: &mut Report) {
    let pinned = PINNED_DIGESTS
        .iter()
        .find(|(k, _)| *k == shape)
        .map(|(_, d)| *d)
        .expect("every shape is pinned");
    report.op(
        run_once(&config(shape, DEFAULT_SEED)).and_then(|(_, _, s)| {
            match check_stats(shape, &s)? {
                d if d == pinned => Ok(()),
                d => Err(format!(
                    "digest {d:#018x} at the default seed differs from the pinned {pinned:#018x}"
                )),
            }
        }),
    );
    let configs: Vec<ClusterConfig> = (0..SUB_SEEDS)
        .map(|j| config(shape, mix(seed, 1000 + j)))
        .collect();
    let core_epochs = (CHIPS * CORES * EPOCHS) as f64;
    let mut clock = HostClock::new(config(shape, seed).shards);
    let mut timed = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; configs.len()];
    let mut errs: Vec<(f64, f64)> = Vec::new();
    for rep in 0.. {
        let j = rep % configs.len();
        let outcome = run_once(&configs[j]).and_then(|(setup, step, s)| {
            let tick = clock.mark(setup + step);
            let digest = check_stats(shape, &s)?;
            match digests[j] {
                None => {
                    digests[j] = Some(digest);
                    errs.push((s.agg_ips_err_pct, s.agg_power_err_pct));
                }
                Some(d) if d != digest => return Err("cluster run is not deterministic".into()),
                Some(_) => {}
            }
            timed.push((setup, step, tick));
            Ok(())
        });
        report.op(outcome);
        if rep + 1 >= configs.len() && deadline.passed() {
            break;
        }
    }
    let setup_s: Vec<f64> = timed.iter().map(|&(s, _, t)| s * clock.scale(t)).collect();
    let rates: Vec<f64> = timed
        .iter()
        .map(|&(_, step, t)| core_epochs / (step * clock.scale(t)))
        .collect();
    let raw_rates: Vec<f64> = timed
        .iter()
        .map(|&(_, step, _)| core_epochs / step)
        .collect();
    let mean = |f: fn(&(f64, f64)) -> f64| errs.iter().map(f).sum::<f64>() / errs.len() as f64;
    let (ips, power) = (mean(|e| e.0), mean(|e| e.1));
    report.set_median("setup_s", &setup_s);
    let rate = report.set_median("ops_per_s", &rates);
    report.set("ips_err_pct", ips, errs.len());
    report.set("power_err_pct", power, errs.len());
    report.extra("core_epochs_per_s", rate, "1/s", rates.len());
    report.extra_wall("ops_per_s", &raw_rates, "1/s", &clock.unit_times());
    report.extra("track_ips_err_pct", ips, "%", errs.len());
    report.extra("track_power_err_pct", power, "%", errs.len());
}

/// What the serial drivers step: a real `Chip` or the composed beat.
trait Beat {
    fn step_epoch(&mut self);
    fn publish(&mut self) -> ChipSummary;
    fn set_power_cap(&mut self, cap_w: f64);
}

impl Beat for Chip {
    fn step_epoch(&mut self) {
        Chip::step_epoch(self);
    }
    fn publish(&mut self) -> ChipSummary {
        Chip::publish(self)
    }
    fn set_power_cap(&mut self, cap_w: f64) {
        Chip::set_power_cap(self, cap_w);
    }
}

/// The cluster arbiter exactly as `ClusterRunner` builds it.
fn cluster_arbiter(cfg: &ClusterConfig) -> ClusterArbiter {
    ClusterArbiter::new(
        cfg.cluster_power_cap_w,
        cfg.policy,
        vec![1.2 * cfg.cores_per_chip as f64; cfg.n_chips],
        vec![cfg.chip_floor_w(); cfg.n_chips],
        vec![1.0; cfg.n_chips],
    )
}

/// Spans of one serial drive.
#[derive(Debug, Default, Clone, Copy)]
struct Drive {
    wall_ns: u64,
    /// Inside `step_epoch` (probed drives only).
    step: Span,
    /// Inside `ClusterArbiter::rebudget` (probed drives only).
    rebudget: Span,
    /// Allocations inside `step_epoch` (probed drives only).
    allocs: u64,
    exchanges: u64,
    moves: u64,
}

/// Steps `chips` serially through the cluster's exchange windows — the
/// shard loop's order of operations on one thread. With `probe`, times
/// every `step_epoch` and `rebudget` and counts `step_epoch` allocations.
fn drive<C: Beat>(chips: &mut [C], cfg: &ClusterConfig, probe: bool) -> Drive {
    let mut arbiter = cluster_arbiter(cfg);
    let mut d = Drive::default();
    let t_wall = Instant::now();
    let caps = arbiter.bootstrap();
    for (chip, cap) in chips.iter_mut().zip(caps) {
        chip.set_power_cap(cap);
    }
    let period = cfg.exchange_period;
    let windows = cfg.epochs.div_ceil(period);
    let mut summaries = Vec::with_capacity(chips.len());
    for window in 0..windows {
        let epochs = (cfg.epochs - window * period).min(period);
        for chip in chips.iter_mut() {
            for _ in 0..epochs {
                if probe {
                    let t = Instant::now();
                    let ((), allocs) = count_allocs(|| chip.step_epoch());
                    d.step += Span::since(t);
                    d.allocs += allocs;
                } else {
                    chip.step_epoch();
                }
            }
        }
        summaries.clear();
        summaries.extend(chips.iter_mut().map(|c| c.publish()));
        if window + 1 < windows {
            let t = Instant::now();
            let caps = arbiter.rebudget(&summaries);
            if probe {
                d.rebudget += Span::since(t);
            }
            for (chip, cap) in chips.iter_mut().zip(caps) {
                chip.set_power_cap(cap);
            }
        }
    }
    d.wall_ns = elapsed_ns(t_wall);
    d.exchanges = arbiter.exchanges();
    d.moves = arbiter.rebudget_moves();
    d
}

/// Builds the cluster's chips exactly as
/// `ClusterRunner::with_shared_controller` does.
fn build_chips(cfg: &ClusterConfig, ctrl: &LqgController) -> Result<Vec<Chip>, String> {
    (0..cfg.n_chips)
        .map(|i| {
            Chip::build_banked(i, cfg.chip_config(i), ctrl).map_err(|e| format!("chip {i}: {e}"))
        })
        .collect()
}

fn chip_digests(chips: Vec<Chip>) -> Vec<u64> {
    chips
        .into_iter()
        .map(|c| c.into_results().0.digest())
        .collect()
}

/// The deployed controller's bank: 2 inputs, 2 outputs, 4 states (the
/// last parameter is their sum), the shape `Chip::build_banked` banks.
type Bank = GovernorBank<2, 2, 4, 8>;

/// One core of the composed beat.
struct Core {
    lp: EpochLoop<Box<dyn Governor + Send>, TimedPlant<FaultInjector<Processor>>>,
    target: Vector,
    errs: TrackingErrorAccumulator,
    fallback_installed: bool,
}

/// Time a composed chip spends in each of its layers.
#[derive(Debug, Default, Clone, Copy)]
struct BeatSpans {
    /// Inside `EpochLoop::step` / `step_decided`.
    engine: Span,
    /// The bank's batched decision of one chip epoch: every
    /// `GovernorBank::load_measurement` and the `step_all`.
    bank_step: Span,
    /// Core decisions the bank made (its slots, summed over epochs).
    bank_decisions: u64,
    /// Inside `GovernorBank::set_target`.
    bank_retarget: Span,
    /// Retargets, on the bank or per cell.
    retargets: u64,
    /// Retargets whose target bits changed.
    retargets_moved: u64,
    /// Inside `BudgetArbiter::arbitrate_with_quarantine`.
    arbitrate: Span,
    /// Inside `SharedLlc::update`.
    llc_update: Span,
}

impl std::ops::AddAssign for BeatSpans {
    fn add_assign(&mut self, o: BeatSpans) {
        self.engine += o.engine;
        self.bank_step += o.bank_step;
        self.bank_decisions += o.bank_decisions;
        self.bank_retarget += o.bank_retarget;
        self.retargets += o.retargets;
        self.retargets_moved += o.retargets_moved;
        self.arbitrate += o.arbitrate;
        self.llc_update += o.llc_update;
    }
}

/// A chip beat composed from the public layers, mirroring a
/// `Chip::build_banked` chip: decide for every enrolled core in one bank
/// batch, step every core in core order (evicting a core that quarantines),
/// arbitrate, update the shared LLC, retarget, install LLC penalties.
struct ComposedChip {
    index: usize,
    cores: Vec<Core>,
    bank: Bank,
    /// Core index → bank slot; `None` once the core is evicted.
    slots: Vec<Option<usize>>,
    arbiter: BudgetArbiter,
    llc: Option<SharedLlc>,
    obs: Vec<CoreObs>,
    quarantined: Vec<bool>,
    ways: Vec<f64>,
    epochs_run: usize,
    win_power_sum: f64,
    win_ips_sum: f64,
    win_epochs: u64,
    spans: BeatSpans,
}

impl ComposedChip {
    fn build(index: usize, cfg: &FleetConfig, ctrl: &LqgController) -> Result<Self, String> {
        let proto = ctrl
            .clone()
            .into_static::<2, 2, 4, 8>()
            .map_err(|e| format!("the controller does not fit the bank: {e}"))?;
        let mut bank = Bank::new(&proto);
        let warmup = fleet_warmup(cfg.epochs);
        let base = Vector::from_slice(&cfg.base_targets);
        let specs: Vec<CoreSpec> = cfg.core_specs();
        let mut cores = Vec::with_capacity(specs.len());
        let mut slots = Vec::with_capacity(specs.len());
        for (idx, spec) in specs.iter().enumerate() {
            let plant = ProcessorBuilder::new()
                .app(&spec.app)
                .seed(spec.seed)
                .input_set(cfg.input_set)
                .build()
                .map_err(|e| e.to_string())?;
            let mut plan = if cfg.fault_rate > 0.0 {
                FaultPlan::transient(
                    cfg.fault_rate,
                    TRANSIENT_FAULT_EPOCHS,
                    spec.seed.rotate_left(17) ^ 0xFA01_7B0C_5EED_F417,
                )
            } else {
                FaultPlan::none()
            };
            for (core, fspec) in &cfg.core_faults {
                if *core == idx {
                    plan = plan.with_fault(*fspec);
                }
            }
            // The core's own governor waits, stale, for an eviction that
            // replaces it with the heuristic fallback; the bank decides.
            let mut lp = EpochLoop::new(
                fast_governor(ctrl.clone()),
                TimedPlant {
                    inner: FaultInjector::new(plant, plan),
                },
            );
            lp.set_core(idx);
            lp.set_targets(&base);
            let slot = bank.enroll(idx);
            bank.set_target(slot, &base);
            slots.push(Some(slot));
            cores.push(Core {
                lp,
                target: base.clone(),
                errs: TrackingErrorAccumulator::new(2, warmup),
                fallback_installed: false,
            });
        }
        let n = cores.len();
        let llc = match cfg.llc {
            Some(l) => Some(SharedLlc::new(l, n).map_err(|e| e.to_string())?),
            None => None,
        };
        Ok(ComposedChip {
            index,
            cores,
            bank,
            slots,
            arbiter: BudgetArbiter::new(
                cfg.chip_power_cap_w,
                cfg.policy,
                cfg.base_targets,
                specs.iter().map(|s| s.priority).collect(),
            ),
            llc,
            obs: vec![
                CoreObs {
                    ips: 0.0,
                    power: 0.0
                };
                n
            ],
            quarantined: vec![false; n],
            ways: vec![0.0; n],
            epochs_run: 0,
            win_power_sum: 0.0,
            win_ips_sum: 0.0,
            win_epochs: 0,
            spans: BeatSpans::default(),
        })
    }

    /// `FleetStats::digest` of the drained chip.
    fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.cores.len() as u64);
        h.write_u64(self.epochs_run as u64);
        h.write_u64(self.arbiter.violations());
        h.write_f64(self.arbiter.avg_chip_power_w());
        h.write_f64(self.arbiter.peak_chip_power_w());
        let totals: Vec<_> = self
            .cores
            .iter()
            .map(|c| c.lp.plant().inner.inner().totals())
            .collect();
        h.write_f64(totals.iter().map(|t| t.energy_j).sum());
        h.write_f64(totals.iter().map(|t| t.instructions_g).sum());
        for (c, t) in self.cores.iter().zip(&totals) {
            h.write_f64(c.errs.avg_pct(0));
            h.write_f64(c.errs.avg_pct(1));
            h.write_f64(t.energy_j);
        }
        h.finish()
    }
}

impl Core {
    /// The fleet's quarantine reaction: swap in the heuristic fallback
    /// (timed, like every governor off the bank) once and clear the latch.
    fn handle_quarantine(&mut self) {
        if self.fallback_installed {
            return;
        }
        let grids = self.lp.input_grids().to_vec();
        let ranking = SensitivityRanking::frequency_first(grids.len());
        let fallback = HeuristicTracker::new(grids, ranking, self.target.clone());
        *self.lp.governor_mut() = Box::new(TimedGovernor::new(Box::new(fallback)));
        self.lp.set_targets(&self.target);
        self.lp.reset_health();
        self.fallback_installed = true;
    }
}

impl Beat for ComposedChip {
    fn step_epoch(&mut self) {
        let t = Instant::now();
        for (core, slot) in self.cores.iter().zip(&self.slots) {
            if let Some(slot) = *slot {
                self.bank
                    .load_measurement(slot, core.lp.outputs().as_slice());
            }
        }
        self.bank.step_all();
        self.spans.bank_step += Span::since(t);
        self.spans.bank_decisions += self.bank.len() as u64;
        for (idx, core) in self.cores.iter_mut().enumerate() {
            let t = Instant::now();
            let outcome = match self.slots[idx] {
                Some(slot) => core.lp.step_decided(self.bank.decision(slot)),
                None => core.lp.step(),
            };
            self.spans.engine += Span::since(t);
            let y = core.lp.outputs();
            self.obs[idx] = CoreObs {
                ips: y[0],
                power: y[1],
            };
            core.errs.record(y, &core.target);
            if matches!(outcome, StepOutcome::Quarantined(_)) {
                core.handle_quarantine();
                if let Some(slot) = self.slots[idx].take() {
                    if let Some(moved) = self.bank.evict(slot) {
                        self.slots[moved] = Some(slot);
                    }
                }
            }
            self.quarantined[idx] = core.lp.is_quarantined();
            if self.llc.is_some() {
                self.ways[idx] = core.lp.plant().inner.inner().config().l2_ways as f64;
            }
        }
        let t = Instant::now();
        let targets = self
            .arbiter
            .arbitrate_with_quarantine(&self.obs, &self.quarantined);
        self.spans.arbitrate += Span::since(t);
        if let Some(llc) = &mut self.llc {
            let t = Instant::now();
            llc.update(&self.ways);
            self.spans.llc_update += Span::since(t);
        }
        self.win_power_sum += self.arbiter.last_chip_power_w();
        self.win_ips_sum += self.obs.iter().map(|o| o.ips).sum::<f64>();
        self.win_epochs += 1;
        for (idx, (core, target)) in self.cores.iter_mut().zip(&targets).enumerate() {
            let moved = target
                .iter()
                .zip(core.target.iter())
                .any(|(a, b)| a.to_bits() != b.to_bits());
            self.spans.retargets += 1;
            self.spans.retargets_moved += u64::from(moved);
            core.target.copy_from(target);
            match self.slots[idx] {
                Some(slot) => {
                    let t = Instant::now();
                    self.bank.set_target(slot, target);
                    self.spans.bank_retarget += Span::since(t);
                }
                None => core.lp.set_targets(target),
            }
        }
        if let Some(llc) = &self.llc {
            for (idx, core) in self.cores.iter_mut().enumerate() {
                core.lp
                    .plant_mut()
                    .inner
                    .inner_mut()
                    .set_llc_penalty(llc.penalty(idx));
            }
        }
        self.epochs_run += 1;
    }

    fn publish(&mut self) -> ChipSummary {
        let epochs = self.win_epochs;
        let avg = |sum: f64| {
            if epochs == 0 {
                0.0
            } else {
                sum / epochs as f64
            }
        };
        let summary = ChipSummary {
            chip: self.index,
            n_cores: self.cores.len(),
            window_epochs: epochs,
            avg_power_w: avg(self.win_power_sum),
            avg_ips: avg(self.win_ips_sum),
            quarantined_cores: self.quarantined.iter().filter(|&&q| q).count(),
        };
        self.win_power_sum = 0.0;
        self.win_ips_sum = 0.0;
        self.win_epochs = 0;
        summary
    }

    fn set_power_cap(&mut self, cap_w: f64) {
        self.arbiter.set_cap(cap_w);
    }
}

/// Per-repetition samples of the traced run.
#[derive(Default)]
struct Samples {
    plant_ns: Vec<f64>,
    llc_ns: Vec<f64>,
    decide_ns: Vec<f64>,
    retarget_ns: Vec<f64>,
    bank_ns: Vec<f64>,
    engine_ns: Vec<f64>,
    build_us: Vec<f64>,
    step_ns: Vec<f64>,
    self_ns: Vec<f64>,
    arbiter_ns: Vec<f64>,
    rebudget_ns: Vec<f64>,
    wait_share: Vec<f64>,
    overhead: Vec<f64>,
    coverage: Vec<f64>,
    composed_ns: Vec<f64>,
}

/// Runs the traced workload (see the module docs).
pub fn run_traced(shape: Shape, seed: u64, deadline: &Deadline, report: &mut Report) {
    let cfg = config(shape, seed);
    let op = DesignOp {
        input_set: InputSet::FreqCache,
        weights: None,
        seed: DEFAULT_SEED,
    };
    let cost = SpanCost::calibrate();
    let ctrl = match compose(&op, cost) {
        Ok((d, spans)) => {
            let same = fingerprint(&d).and_then(|fp| {
                let public = setup::design_mimo(InputSet::FreqCache, DEFAULT_SEED)
                    .map_err(|e| format!("controller design: {e}"))?;
                if fingerprint(&public)? == fp {
                    Ok(())
                } else {
                    Err("composed design differs from setup::design_mimo".into())
                }
            });
            report.op(same);
            record_design_spans(report, spans, 1);
            d.controller
        }
        Err(e) => {
            report.op(Err(format!("composed design: {e}")));
            return;
        }
    };
    let chip_epochs = (CHIPS * EPOCHS) as f64;
    let mut s = Samples::default();
    let mut counts = None;
    loop {
        match traced_rep(&cfg, &ctrl, cost, &mut s) {
            Ok(c) => {
                if counts.is_some_and(|prev| prev != c) {
                    report.op(Err("traced counts differ between repetitions".into()));
                } else {
                    report.op(Ok(()));
                }
                counts = Some(c);
            }
            Err(e) => report.op(Err(e)),
        }
        if deadline.passed() {
            break;
        }
    }
    let n = s.step_ns.len();
    for (name, samples) in [
        ("sim.plant.ns_per_core_epoch", &s.plant_ns),
        ("sim.llc.ns_per_chip_epoch", &s.llc_ns),
        ("core.governor.decide_ns", &s.decide_ns),
        ("core.governor.retarget_ns", &s.retarget_ns),
        ("core.engine.ns_per_core_epoch", &s.engine_ns),
        ("fleet.bank.step_ns_per_slot", &s.bank_ns),
        ("fleet.chip.build_us_per_core", &s.build_us),
        ("fleet.chip.step_ns_per_core_epoch", &s.step_ns),
        ("fleet.chip.self_ns_per_core_epoch", &s.self_ns),
        ("fleet.arbiter.ns_per_chip_epoch", &s.arbiter_ns),
        ("fleet.cluster.rebudget_ns", &s.rebudget_ns),
        ("fleet.shard.wait_share", &s.wait_share),
        ("trace.overhead_ratio", &s.overhead),
        ("trace.coverage", &s.coverage),
    ] {
        report.set_median(name, samples);
    }
    let composed = median(&s.composed_ns).unwrap_or(f64::NAN);
    report.extra("composed.ns_per_core_epoch", composed, "ns", n);
    report.extra("probe.span_cost_ns", cost.total, "ns", 1);
    let c = counts.unwrap_or_default();
    report.set("core.governor.retarget_moved_ratio", c.moved_ratio, n);
    report.set("fleet.bank.enrolled_ratio", c.enrolled_ratio, n);
    report.set(
        "fleet.chip.allocs_per_epoch",
        c.allocs as f64 / chip_epochs,
        n,
    );
    report.set("fleet.cluster.exchanges", c.exchanges as f64, n);
    report.set("fleet.cluster.rebudget_moves", c.moves as f64, n);
    report.set("core.engine.fault_epochs", c.fault_epochs as f64, n);
    report.set("core.engine.quarantined_cores", c.quarantined as f64, n);
}

/// The exact counts of one traced repetition, which must repeat.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    allocs: u64,
    moved_ratio: f64,
    enrolled_ratio: f64,
    exchanges: u64,
    moves: u64,
    fault_epochs: u64,
    quarantined: usize,
}

fn traced_rep(
    cfg: &ClusterConfig,
    ctrl: &LqgController,
    cost: SpanCost,
    s: &mut Samples,
) -> Result<Counts, String> {
    let core_epochs = (cfg.n_chips * cfg.cores_per_chip * cfg.epochs) as f64;
    let cores = (cfg.n_chips * cfg.cores_per_chip) as f64;

    // 1. Untraced, sharded: the reference digests.
    let stats = ClusterRunner::with_shared_controller(cfg.clone(), ctrl)
        .and_then(ClusterRunner::run)
        .map_err(|e| e.to_string())?;
    let reference: Vec<u64> = stats.per_chip.iter().map(|c| c.digest()).collect();
    let stepping: f64 = stats.per_chip.iter().map(|c| c.wall_s).sum();
    s.wait_share
        .push(1.0 - stepping / (stats.shards as f64 * stats.wall_s));
    let same = |what: &str, digests: Vec<u64>| {
        if digests == reference {
            Ok(())
        } else {
            Err(format!(
                "{what} per-chip digests differ from the untraced run"
            ))
        }
    };

    // 2. Untraced serial driver.
    let mut plain = build_chips(cfg, ctrl)?;
    let untraced = drive(&mut plain, cfg, false);
    same("serial driver", chip_digests(plain))?;

    // 3. In situ: the same chips, every step and rebudget timed.
    let t = Instant::now();
    let mut chips = build_chips(cfg, ctrl)?;
    s.build_us.push(elapsed_ns(t) as f64 / 1e3 / cores);
    let in_situ = drive(&mut chips, cfg, true);
    same("traced in-situ", chip_digests(chips))?;
    let step_ns = in_situ.step.ns as f64 - cost.inside * in_situ.step.calls as f64;
    s.rebudget_ns.push(cost.mean_ns(in_situ.rebudget));

    // 4. The composed beat.
    let mut composed = (0..cfg.n_chips)
        .map(|i| ComposedChip::build(i, &cfg.chip_config(i), ctrl))
        .collect::<Result<Vec<_>, String>>()?;
    let _ = take_spans();
    let beat = drive(&mut composed, cfg, false);
    let cell = take_spans();
    same(
        "composed beat",
        composed.iter().map(ComposedChip::digest).collect(),
    )?;
    let mut b = BeatSpans::default();
    for c in &composed {
        b += c.spans;
    }
    let net = |span: Span| span.ns as f64 - cost.inside * span.calls as f64;
    let engine = cost.self_ns(b.engine, &[cell.decide, cell.plant]);
    let plant = net(cell.plant);
    let bank = net(b.bank_step);
    let decide = bank + net(cell.decide);
    let retarget = net(b.bank_retarget) + net(cell.retarget);
    let arbiter = net(b.arbitrate);
    let llc = net(b.llc_update);
    let per = |calls: u64| calls.max(1) as f64;
    s.plant_ns.push(plant / core_epochs);
    s.engine_ns.push(engine / core_epochs);
    s.bank_ns.push(bank / per(b.bank_decisions));
    s.decide_ns
        .push(decide / per(b.bank_decisions + cell.decide.calls));
    s.retarget_ns
        .push(retarget / per(b.bank_retarget.calls + cell.retarget.calls));
    s.arbiter_ns.push(cost.mean_ns(b.arbitrate));
    s.llc_ns.push(cost.mean_ns(b.llc_update));
    let layers = engine + plant + decide + retarget + arbiter + llc;
    s.composed_ns.push(layers / core_epochs);
    s.step_ns.push(step_ns / core_epochs);
    s.self_ns.push((step_ns - decide - retarget) / core_epochs);
    s.overhead
        .push(beat.wall_ns as f64 / untraced.wall_ns.max(1) as f64);
    // The beat's wall less what its probes themselves cost.
    let probes: u64 = [
        b.engine,
        b.bank_step,
        b.bank_retarget,
        b.arbitrate,
        b.llc_update,
        cell.plant,
        cell.decide,
        cell.retarget,
    ]
    .iter()
    .map(|span| span.calls)
    .sum();
    let unprobed = beat.wall_ns as f64 - cost.total * probes as f64;
    s.coverage.push(layers / unprobed.max(1.0));

    Ok(Counts {
        allocs: in_situ.allocs,
        moved_ratio: b.retargets_moved as f64 / per(b.retargets),
        enrolled_ratio: b.bank_decisions as f64 / core_epochs,
        exchanges: in_situ.exchanges,
        moves: in_situ.moves,
        fault_epochs: stats.fault_epochs,
        quarantined: stats.quarantined_cores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_cores_are_distinct_and_in_range() {
        for seed in 0..500 {
            let [(chip_a, core_a), (chip_b, core_b)] = faulty_cores(seed);
            assert_ne!(chip_a, chip_b, "seed {seed}");
            assert!(chip_a < CHIPS && chip_b < CHIPS && core_a < CORES && core_b < CORES);
        }
    }

    #[test]
    fn configs_validate_and_differ_as_described() {
        let track = config(Shape::Track, 3);
        let hold = config(Shape::Hold, 3);
        track.validate().unwrap();
        hold.validate().unwrap();
        assert_eq!((track.shards, hold.shards), (2, 1));
        assert!(track.core_faults.is_empty() && track.fault_rate == 0.0);
        assert_eq!(hold.core_faults.len(), 2);
        // The traced drivers assume the deployed, banked chip.
        assert!(track.banked && hold.banked);
    }
}
