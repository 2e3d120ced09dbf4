//! One chip: the per-core cells plus the chip's lock-step beat.
//!
//! A [`Chip`] owns N `CoreCell`s, a [`BudgetArbiter`], and (optionally)
//! a [`SharedLlc`] contention model. [`Chip::step_epoch`] advances the
//! whole chip one epoch *serially* — step every core in core order,
//! arbitrate over the core-indexed observation table, retarget. This is
//! the runtime's only epoch beat: the single-chip
//! [`FleetRunner`](crate::FleetRunner) is a loop over it, and the cluster
//! runtime steps whole chips on shard threads with no cross-chip barrier,
//! which is why the beat needs no locks at all.

use mimo_core::engine::{fleet_warmup, EpochLoop, StepOutcome, TrackingErrorAccumulator};
use mimo_core::governor::Governor;
use mimo_core::heuristic::{HeuristicTracker, SensitivityRanking};
use mimo_core::telemetry::TelemetrySink;
use mimo_linalg::Vector;
use mimo_sim::fault::{FaultInjector, FaultPlan};
use mimo_sim::llc::SharedLlc;
use mimo_sim::{Plant, Processor, ProcessorBuilder};

use crate::arbiter::{BudgetArbiter, CoreObs};
use crate::bank::BankKind;
use crate::config::{CoreSpec, FleetConfig};
use crate::error::{FleetError, Result};
use crate::stats::{ChipSummary, CoreStats, FleetStats};
use crate::telemetry::CoreTelemetry;

/// Epoch length of each random transient fault injected by
/// [`FleetConfig::fault_rate`].
const TRANSIENT_FAULT_EPOCHS: u64 = 3;

/// One core: a shared epoch engine around the plant/governor pair, plus
/// accumulated error statistics.
struct CoreCell {
    idx: usize,
    spec: CoreSpec,
    /// The observer slot is `Option<TelemetrySink>`: `None` (untraced
    /// fleets) reports statically disabled, so the hot loop skips record
    /// capture entirely and stays bit-and-allocation identical to the
    /// pre-telemetry runtime.
    lp: EpochLoop<Box<dyn Governor + Send>, FaultInjector<Processor>, Option<TelemetrySink>>,
    /// Reference active during the current epoch (set by arbitration at
    /// the end of the previous one).
    target: Vector,
    errs: TrackingErrorAccumulator,
    /// Whether the heuristic fallback governor has replaced the original
    /// (done once, on the first quarantine).
    fallback_installed: bool,
}

impl CoreCell {
    /// Runs one epoch and returns the measurement for the arbiter plus
    /// whether this epoch crossed into quarantine.
    fn step(&mut self) -> (CoreObs, bool) {
        let outcome = self.lp.step();
        self.after_step(outcome)
    }

    /// Runs one epoch whose governor decision came from a
    /// [`GovernorBank`](crate::bank::GovernorBank) slot instead of the
    /// cell's own (stale while enrolled) governor. Same observation and
    /// quarantine reporting as [`CoreCell::step`].
    fn step_banked(
        &mut self,
        decision: std::result::Result<&[f64], mimo_core::engine::EpochCause>,
    ) -> (CoreObs, bool) {
        let outcome = self.lp.step_decided(decision);
        self.after_step(outcome)
    }

    /// Shared epilogue of the per-cell and banked steps.
    fn after_step(&mut self, outcome: StepOutcome) -> (CoreObs, bool) {
        // On faulted epochs the engine substitutes the last healthy
        // measurement, so the observation table stays finite.
        let y = self.lp.outputs();
        let obs = CoreObs {
            ips: y[0],
            power: y[1],
        };
        self.errs.record(y, &self.target);
        (obs, matches!(outcome, StepOutcome::Quarantined(_)))
    }

    /// Reacts to a quarantine verdict: the first time around, swap the
    /// failing governor for the rule-based heuristic fallback (which
    /// carries no internal model state to corrupt) and clear the engine's
    /// failure latch so the fallback gets a chance. If the fallback itself
    /// quarantines — a plant fault no governor can mask — the core simply
    /// stays latched and the arbiter keeps it pinned at the floor budget.
    fn handle_quarantine(&mut self) {
        if self.fallback_installed {
            return;
        }
        let grids = self.lp.input_grids().to_vec();
        let ranking = SensitivityRanking::frequency_first(grids.len());
        let fallback = HeuristicTracker::new(grids, ranking, self.target.clone());
        *self.lp.governor_mut() = Box::new(fallback);
        self.lp.set_targets(&self.target);
        self.lp.reset_health();
        self.fallback_installed = true;
    }

    /// Installs the arbiter's new reference for the next epoch.
    fn retarget(&mut self, target: &Vector) {
        self.target.copy_from(target);
        self.lp.set_targets(target);
    }

    /// The L2 way allocation physically in effect this epoch
    /// (post-quantization, post-actuator-faults) — what the shared-LLC
    /// model charges against the chip's way budget.
    fn applied_l2_ways(&self) -> f64 {
        self.lp.plant().inner().config().l2_ways as f64
    }

    /// Installs the shared-LLC miss-pressure multiplier for the next epoch.
    fn set_llc_penalty(&mut self, penalty: f64) {
        self.lp.plant_mut().inner_mut().set_llc_penalty(penalty);
    }

    /// Drains the core after the run: statistics always, telemetry when a
    /// sink was attached.
    fn into_results(mut self) -> (CoreStats, Option<CoreTelemetry>) {
        let avg_ips_err_pct = self.errs.avg_pct(0);
        let avg_power_err_pct = self.errs.avg_pct(1);
        let fault_epochs = self.lp.fault_epochs();
        let quarantine_epoch = self.lp.quarantine_epoch();
        self.lp.finish();
        let (_, plant, sink) = self.lp.into_parts();
        let telemetry = sink.map(|sink| CoreTelemetry {
            core: self.idx,
            trace: sink.trace.to_vec(),
            metrics: sink.metrics,
            quarantine: sink.quarantine,
            summary: sink.summary,
            injected_faults: *plant.injected_by_kind(),
        });
        let totals = plant.inner().totals();
        let stats = CoreStats {
            core: self.idx,
            app: self.spec.app,
            seed: self.spec.seed,
            avg_ips_err_pct,
            avg_power_err_pct,
            avg_power_w: totals.avg_power(),
            energy_j: totals.energy_j,
            instructions_g: totals.instructions_g,
            fault_epochs,
            quarantined: quarantine_epoch.is_some(),
            quarantine_epoch,
        };
        (stats, telemetry)
    }
}

/// Builds every core cell of one chip configuration.
fn build_cells<F>(cfg: &FleetConfig, factory: &mut F) -> Result<Vec<CoreCell>>
where
    F: FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send>,
{
    cfg.validate()?;
    let warmup = fleet_warmup(cfg.epochs);
    let base = Vector::from_slice(&cfg.base_targets);
    let mut cells = Vec::with_capacity(cfg.n_cores);
    for (idx, spec) in cfg.core_specs().into_iter().enumerate() {
        let plant = ProcessorBuilder::new()
            .app(&spec.app)
            .seed(spec.seed)
            .input_set(cfg.input_set)
            .build()?;
        let gov = factory(idx, &spec);
        if gov.num_inputs() != plant.num_inputs() {
            return Err(FleetError::InvalidConfig {
                what: format!(
                    "core {idx}: governor actuates {} inputs, plant has {}",
                    gov.num_inputs(),
                    plant.num_inputs()
                ),
            });
        }
        // Every plant is wrapped in a fault injector; with no faults
        // configured the wrapper is transparent (no RNG draws), so
        // fault-free fleets remain bit-identical to the bare runtime.
        // The transient seed derives from the core's own seed, keeping
        // the fault sequence independent of how chips are sharded.
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
        // A `None` sink is a statically-disabled observer; traced
        // fleets give every core its own sink so no telemetry state is
        // shared between cores or across shard threads.
        let sink = if cfg.telemetry.enabled {
            Some(TelemetrySink::new(&cfg.telemetry))
        } else {
            None
        };
        let mut lp = EpochLoop::new(gov, FaultInjector::new(plant, plan)).with_observer(sink);
        lp.set_core(idx);
        lp.set_targets(&base);
        cells.push(CoreCell {
            idx,
            spec,
            lp,
            target: base.clone(),
            errs: TrackingErrorAccumulator::new(2, warmup),
            fallback_installed: false,
        });
    }
    Ok(cells)
}

/// One chip of the cluster: cells, the chip arbiter, and the optional
/// shared-LLC model, stepped serially by [`Chip::step_epoch`].
pub struct Chip {
    index: usize,
    cfg: FleetConfig,
    cells: Vec<CoreCell>,
    /// Batched structure-of-arrays stepping for the healthy cores sharing
    /// the chip's controller shape (`None` for factory-built chips, for
    /// shapes outside the deployed set, or when the config disables it).
    bank: Option<BankKind>,
    /// Core index → bank slot; `None` once a core is evicted to the
    /// per-cell path (quarantine/heuristic fallback) or never enrolled.
    bank_slots: Vec<Option<usize>>,
    arbiter: BudgetArbiter,
    llc: Option<SharedLlc>,
    obs: Vec<CoreObs>,
    quarantined: Vec<bool>,
    ways: Vec<f64>,
    /// The arbiter's per-core target table, rewritten in place every
    /// epoch so the beat allocates nothing.
    targets: Vec<Vector>,
    epochs_run: usize,
    /// Cluster-window accumulators, drained by [`Chip::publish`]. These
    /// feed only the cluster layer — never the per-core science — so the
    /// extra arithmetic cannot perturb single-chip results.
    win_power_sum: f64,
    win_ips_sum: f64,
    win_epochs: u64,
    /// Cumulative stepping wall-clock charged by the shard loop
    /// (excludes rendezvous waits).
    wall_s: f64,
}

impl Chip {
    /// Builds chip `index` from a per-chip fleet configuration.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidConfig`] for a bad configuration or a governor
    /// whose input count does not match the plant, and [`FleetError::Sim`]
    /// if a plant or the LLC-contention model fails to build.
    pub fn build<F>(index: usize, cfg: FleetConfig, factory: &mut F) -> Result<Self>
    where
        F: FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send>,
    {
        Self::build_with_bank(index, cfg, factory, None)
    }

    /// Builds chip `index` around a shared controller, enrolling every
    /// core into a [`GovernorBank`](crate::bank::GovernorBank) when the
    /// controller's shape is banked-capable and the config allows it.
    /// Each cell still carries its own (per-cell-path-identical) governor
    /// so eviction back to per-cell stepping needs no resynthesis; the
    /// banked decisions are bit-identical, so results match
    /// [`Chip::build`] with a `fast_governor` factory exactly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::build`].
    pub fn build_banked(
        index: usize,
        cfg: FleetConfig,
        ctrl: &mimo_core::LqgController,
    ) -> Result<Self> {
        let bank = if cfg.banked {
            BankKind::try_new(ctrl)
        } else {
            None
        };
        Self::build_with_bank(
            index,
            cfg,
            &mut |_, _| mimo_core::governor::fast_governor(ctrl.clone()),
            bank,
        )
    }

    fn build_with_bank<F>(
        index: usize,
        cfg: FleetConfig,
        factory: &mut F,
        mut bank: Option<BankKind>,
    ) -> Result<Self>
    where
        F: FnMut(usize, &CoreSpec) -> Box<dyn Governor + Send>,
    {
        let cells = build_cells(&cfg, factory)?;
        let n = cells.len();
        // Enroll every core, replaying `build_cells`' base retarget on the
        // bank side so slot state starts bit-identical to each cell's own
        // governor.
        let mut bank_slots = vec![None; n];
        if let Some(bank) = &mut bank {
            let base = Vector::from_slice(&cfg.base_targets);
            for cell in &cells {
                let slot = bank.enroll(cell.idx);
                bank.set_target(slot, &base);
                bank_slots[cell.idx] = Some(slot);
            }
        }
        let priorities: Vec<f64> = cells.iter().map(|c| c.spec.priority).collect();
        let arbiter = BudgetArbiter::new(
            cfg.chip_power_cap_w,
            cfg.policy,
            cfg.base_targets,
            priorities,
        );
        let llc = match cfg.llc {
            Some(lcfg) => Some(SharedLlc::new(lcfg, n)?),
            None => None,
        };
        Ok(Chip {
            index,
            cells,
            bank,
            bank_slots,
            arbiter,
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
            targets: vec![Vector::zeros(2); n],
            epochs_run: 0,
            win_power_sum: 0.0,
            win_ips_sum: 0.0,
            win_epochs: 0,
            wall_s: 0.0,
            cfg,
        })
    }

    /// This chip's index within the cluster.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of cores on the chip.
    pub fn n_cores(&self) -> usize {
        self.cells.len()
    }

    /// Chip epochs stepped so far.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Advances the whole chip one epoch: step every core in core order,
    /// arbitrate over the core-indexed table, refresh the shared-LLC
    /// penalties, retarget. A [`FleetRunner`](crate::FleetRunner) run is a
    /// loop over this beat, so a one-chip cluster is bit-identical to it.
    pub fn step_epoch(&mut self) {
        // Banked pre-pass: decide for every enrolled core in one
        // structure-of-arrays batch. Cores are mutually independent, so
        // deciding before the plant applications is bit-identical to the
        // per-cell interleaving.
        if let Some(bank) = &mut self.bank {
            for cell in &self.cells {
                if let Some(slot) = self.bank_slots[cell.idx] {
                    bank.load_measurement(slot, cell.lp.outputs().as_slice());
                }
            }
            bank.step_all();
        }
        for cell in &mut self.cells {
            let (obs, quarantined_now) = match (&self.bank, self.bank_slots[cell.idx]) {
                (Some(bank), Some(slot)) => cell.step_banked(bank.decision(slot)),
                _ => cell.step(),
            };
            if quarantined_now {
                cell.handle_quarantine();
                // Evict from the bank back to the per-cell path (the
                // heuristic fallback owns the core from here on).
                if let (Some(bank), Some(slot)) =
                    (self.bank.as_mut(), self.bank_slots[cell.idx].take())
                {
                    if let Some(moved) = bank.evict(slot) {
                        self.bank_slots[moved] = Some(slot);
                    }
                }
            }
            // Report the live latch: a core the fallback rescues regains
            // budget; a permanently faulted one stays pinned at the floor.
            self.obs[cell.idx] = obs;
            self.quarantined[cell.idx] = cell.lp.is_quarantined();
            if self.llc.is_some() {
                self.ways[cell.idx] = cell.applied_l2_ways();
            }
        }
        self.arbiter
            .arbitrate_into(&self.obs, &self.quarantined, &mut self.targets);
        if let Some(llc) = &mut self.llc {
            llc.update(&self.ways);
        }
        // Cluster-window bookkeeping, on dedicated accumulators.
        self.win_power_sum += self.arbiter.last_chip_power_w();
        self.win_ips_sum += self.obs.iter().map(|o| o.ips).sum::<f64>();
        self.win_epochs += 1;
        for (cell, target) in self.cells.iter_mut().zip(&self.targets) {
            match (self.bank.as_mut(), self.bank_slots[cell.idx]) {
                (Some(bank), Some(slot)) => {
                    // The bank owns the controller runtime while the core
                    // is enrolled; skip the stale boxed governor.
                    cell.target.copy_from(target);
                    bank.set_target(slot, target);
                }
                _ => cell.retarget(target),
            }
        }
        if let Some(llc) = &self.llc {
            for cell in &mut self.cells {
                cell.set_llc_penalty(llc.penalty(cell.idx));
            }
        }
        self.epochs_run += 1;
    }

    /// Drains the window accumulators into the `Copy` snapshot the cluster
    /// arbiter consumes at an epoch exchange.
    pub fn publish(&mut self) -> ChipSummary {
        let epochs = self.win_epochs;
        let summary = ChipSummary {
            chip: self.index,
            n_cores: self.cells.len(),
            window_epochs: epochs,
            avg_power_w: if epochs == 0 {
                0.0
            } else {
                self.win_power_sum / epochs as f64
            },
            avg_ips: if epochs == 0 {
                0.0
            } else {
                self.win_ips_sum / epochs as f64
            },
            quarantined_cores: self.quarantined.iter().filter(|&&q| q).count(),
        };
        self.win_power_sum = 0.0;
        self.win_ips_sum = 0.0;
        self.win_epochs = 0;
        summary
    }

    /// Installs the cluster arbiter's fresh power cap for this chip. The
    /// chip's reported `chip_cap_w` tracks the live grant, so drained
    /// statistics show the cap the chip actually ended the run under.
    pub fn set_power_cap(&mut self, cap_w: f64) {
        self.arbiter.set_cap(cap_w);
        self.cfg.chip_power_cap_w = cap_w;
    }

    /// Charges stepping wall-clock to this chip (rendezvous waits are the
    /// shard's, not the chip's).
    pub(crate) fn add_wall(&mut self, seconds: f64) {
        self.wall_s += seconds;
    }

    /// Drains the chip into per-chip fleet statistics plus any per-core
    /// telemetry.
    pub fn into_results(self) -> (FleetStats, Vec<CoreTelemetry>) {
        let mut per_core: Vec<CoreStats> = Vec::with_capacity(self.cells.len());
        let mut telemetry: Vec<CoreTelemetry> = Vec::new();
        for cell in self.cells {
            let (stats, tele) = cell.into_results();
            per_core.push(stats);
            if let Some(t) = tele {
                telemetry.push(t);
            }
        }
        let stats = FleetStats::assemble(
            &self.cfg,
            self.epochs_run,
            &self.arbiter,
            per_core,
            self.wall_s,
        );
        (stats, telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbitrationPolicy;
    use mimo_core::governor::FixedGovernor;
    use mimo_sim::llc::LlcConfig;

    fn fixed() -> Box<dyn Governor + Send> {
        Box::new(FixedGovernor::new(Vector::from_slice(&[1.3, 6.0])))
    }

    fn cfg() -> FleetConfig {
        FleetConfig::new(4)
            .epochs(120)
            .policy(ArbitrationPolicy::Proportional)
            .seed(7)
    }

    #[test]
    fn publish_drains_the_window() {
        let mut chip = Chip::build(2, cfg(), &mut |_, _| fixed()).unwrap();
        for _ in 0..10 {
            chip.step_epoch();
        }
        let s = chip.publish();
        assert_eq!(s.chip, 2);
        assert_eq!(s.window_epochs, 10);
        assert!(s.avg_power_w > 0.0);
        assert!(s.avg_ips > 0.0);
        assert_eq!(s.quarantined_cores, 0);
        // Drained: a second publish with no stepping reports empty.
        let empty = chip.publish();
        assert_eq!(empty.window_epochs, 0);
        assert_eq!(empty.avg_power_w, 0.0);
    }

    #[test]
    fn uncontended_llc_keeps_results_bit_identical() {
        // Budget = full demand: penalties stay exactly 1.0 and the model
        // must be invisible in the results.
        let roomy = LlcConfig::for_cores(4).total_ways(8 * 4);
        let mut with = Chip::build(0, cfg().llc_contention(roomy), &mut |_, _| fixed()).unwrap();
        let mut without = Chip::build(0, cfg(), &mut |_, _| fixed()).unwrap();
        for _ in 0..120 {
            with.step_epoch();
            without.step_epoch();
        }
        let (a, _) = with.into_results();
        let (b, _) = without.into_results();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn contended_llc_changes_results() {
        // Starve the chip: 1 way per core of budget while the fixed
        // governor holds 6 ways per core → sustained contention.
        let tight = LlcConfig::for_cores(4).total_ways(4);
        let mut with = Chip::build(0, cfg().llc_contention(tight), &mut |_, _| fixed()).unwrap();
        let mut without = Chip::build(0, cfg(), &mut |_, _| fixed()).unwrap();
        for _ in 0..120 {
            with.step_epoch();
            without.step_epoch();
        }
        let (a, _) = with.into_results();
        let (b, _) = without.into_results();
        assert_ne!(a.digest(), b.digest());
        // Contention wastes work: fewer instructions for the same epochs.
        assert!(a.instructions_g < b.instructions_g);
    }
}
