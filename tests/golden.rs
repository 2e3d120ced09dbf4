//! Bit-exactness pins for the epoch-engine refactor.
//!
//! These values were captured from the pre-engine runners (PR 1) and must
//! never drift: the `EpochLoop` engine, the in-place linalg kernels, and
//! the scratch-workspace LQG step are all required to reproduce the exact
//! f64 bit patterns of the original per-runner loops for the same seeds.

use std::sync::OnceLock;

use mimo_arch::core::governor::{fast_governor, FixedGovernor, MimoGovernor};
use mimo_arch::core::optimizer::Metric;
use mimo_arch::core::LqgController;
use mimo_arch::exp::runner::{
    run_optimization, run_schedule, run_self_directed, run_tracking, ReferenceStep,
};
use mimo_arch::exp::setup;
use mimo_arch::fleet::{ArbitrationPolicy, ClusterConfig, ClusterRunner, ClusterStats};
use mimo_arch::linalg::Vector;
use mimo_arch::sim::InputSet;

/// Order-dependent digest of f64 bit patterns — the shared workspace
/// reduction (`mimo_core::digest`), which is itself part of the pin: if
/// the helper's mix ever drifted, every golden below would move.
fn bits(values: &[f64]) -> u64 {
    mimo_arch::core::digest::digest_f64(values)
}

/// One shared MIMO design (seed 2, two-input) for every golden below —
/// the design flow is deterministic, so this is itself part of the pin.
fn controller() -> &'static LqgController {
    static CTRL: OnceLock<LqgController> = OnceLock::new();
    CTRL.get_or_init(|| {
        setup::design_mimo(InputSet::FreqCache, 2)
            .expect("design")
            .controller
    })
}

#[test]
fn golden_tracking_fixed() {
    let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
    let mut plant = setup::plant("namd", InputSet::FreqCache, 41);
    let targets = Vector::from_slice(&[2.5, 2.0]);
    let s = run_tracking(&mut gov, &mut plant, &targets, 600, false);
    assert_eq!(bits(&s.avg_err_pct), 0xe1c21b607c8bacf0);
    assert_eq!(bits(s.final_outputs.as_slice()), 0xaa7f0b05608dddd0);
    assert_eq!(s.steady_epoch, vec![Some(0), Some(0)]);
}

#[test]
fn golden_tracking_mimo() {
    let mut gov = MimoGovernor::new(controller().clone());
    let mut plant = setup::plant("astar", InputSet::FreqCache, 7);
    let targets = Vector::from_slice(&[3.0, 1.9]);
    let s = run_tracking(&mut gov, &mut plant, &targets, 1500, true);
    assert_eq!(bits(&s.avg_err_pct), 0xdbdb7811defd8872);
    assert_eq!(bits(s.final_outputs.as_slice()), 0xa8c96a625a46b411);
    let trace = s.trace.expect("trace kept");
    let flat: Vec<f64> = trace.iter().flat_map(|v| v.iter().copied()).collect();
    assert_eq!(bits(&flat), 0x3dc97648fabb448f);
}

#[test]
fn golden_schedule_mimo() {
    let mut gov = MimoGovernor::new(controller().clone());
    let mut plant = setup::plant("gamess", InputSet::FreqCache, 11);
    let schedule = vec![
        ReferenceStep {
            epoch: 0,
            targets: Vector::from_slice(&[2.0, 1.5]),
        },
        ReferenceStep {
            epoch: 150,
            targets: Vector::from_slice(&[3.0, 1.9]),
        },
        ReferenceStep {
            epoch: 300,
            targets: Vector::from_slice(&[1.2, 1.0]),
        },
    ];
    let t = run_schedule(&mut gov, &mut plant, &schedule, 450);
    let flat: Vec<f64> = t.outputs.iter().flat_map(|v| v.iter().copied()).collect();
    assert_eq!(bits(&flat), 0x356ec10591042ad2);
    let refs: Vec<f64> = t
        .references
        .iter()
        .flat_map(|v| v.iter().copied())
        .collect();
    assert_eq!(bits(&refs), 0x2e8b484c5f4b5c1d);
    assert_eq!(t.ips_tracking_error_pct().to_bits(), 0x402bfc60260052cb);
}

#[test]
fn golden_optimization_mimo() {
    let mut gov = MimoGovernor::new(controller().clone());
    let mut plant = setup::plant("gamess", InputSet::FreqCache, 6);
    let s = run_optimization(&mut gov, &mut plant, Metric::EnergyDelay, 0.05);
    assert_eq!(
        bits(&[s.ed_product, s.energy_j, s.time_s, s.instructions_g]),
        0xaf7fe5b59bf687fd
    );
}

#[test]
fn golden_self_directed_fixed() {
    let mut gov = FixedGovernor::new(Vector::from_slice(&[1.3, 6.0]));
    let mut plant = setup::plant("astar", InputSet::FreqCache, 9);
    let s = run_self_directed(&mut gov, &mut plant, Metric::Energy, 0.02);
    assert_eq!(
        bits(&[s.ed_product, s.energy_j, s.time_s, s.instructions_g]),
        0x911244ad30158b87
    );
}

/// The single-chip golden: a one-chip cluster, 4 cores, 150 epochs, seed 7.
fn one_chip_golden() -> ClusterConfig {
    ClusterConfig::new(1, 4)
        .epochs(150)
        .exchange_period(25)
        .policy(ArbitrationPolicy::Proportional)
        .chip_policy(ArbitrationPolicy::Proportional)
        .seed(7)
}

/// Checks a single-chip golden run against both pins: the chip digest and
/// the per-core error/energy bits.
fn assert_one_chip_golden(stats: &ClusterStats) {
    assert_eq!(stats.n_chips, 1);
    assert_eq!(stats.per_chip[0].digest(), 0x19add60c38adeb17);
    let per_core: Vec<f64> = stats.per_chip[0]
        .per_core
        .iter()
        .flat_map(|c| [c.avg_ips_err_pct, c.avg_power_err_pct, c.energy_j])
        .collect();
    assert_eq!(bits(&per_core), 0x12d0dc98e60d37d6);
}

#[test]
fn golden_fleet_digest() {
    // The per-core factory path: every core gets its own clone of the
    // controller through `fast_governor`, stepped per cell.
    let stats = ClusterRunner::new(one_chip_golden(), |_, _, _| {
        fast_governor(controller().clone())
    })
    .unwrap()
    .run()
    .unwrap();
    assert_one_chip_golden(&stats);
}

#[test]
fn golden_one_chip_cluster_reproduces_the_fleet_digest() {
    // The shared-controller path: the chip steps its cores through a
    // structure-of-arrays bank, and a cluster arbiter re-grants the chip's
    // cap at every exchange. Neither may move a bit of the golden above.
    let stats = ClusterRunner::with_shared_controller(one_chip_golden(), controller())
        .unwrap()
        .run()
        .unwrap();
    assert_one_chip_golden(&stats);
}
