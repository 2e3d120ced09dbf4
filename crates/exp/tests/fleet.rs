//! Integration tests for a single chip — a one-chip cluster — driven by a
//! real synthesized MIMO controller (the `fleet_scale` deployment model in
//! miniature).

use mimo_core::LqgController;
use mimo_exp::setup;
use mimo_fleet::{ArbitrationPolicy, ClusterConfig, ClusterRunner, FleetStats};
use mimo_sim::fault::{FaultKind, FaultSpec};
use mimo_sim::InputSet;

/// Runs the one-chip cluster `cfg` with every core on `ctrl` and returns
/// the chip's statistics.
fn run_chip(cfg: ClusterConfig, ctrl: &LqgController) -> FleetStats {
    ClusterRunner::with_shared_controller(cfg, ctrl)
        .expect("chip")
        .run()
        .expect("validated chip config")
        .per_chip
        .remove(0)
}

fn run(policy: ArbitrationPolicy, cap_w: f64) -> FleetStats {
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let cfg = ClusterConfig::new(1, 4)
        .epochs(400)
        .chip_policy(policy)
        .power_cap(cap_w)
        .seed(2016);
    run_chip(cfg, &design.controller)
}

#[test]
fn mimo_fleet_is_deterministic_across_reruns() {
    let one = run(ArbitrationPolicy::Proportional, 4.8);
    let again = run(ArbitrationPolicy::Proportional, 4.8);
    assert_eq!(one, again);
    assert_eq!(one.digest(), again.digest());
    // Deterministic fields are populated, not trivially zero.
    assert!(one.energy_j > 0.0);
    assert!(one.avg_chip_power_w > 0.0);
}

#[test]
fn faulted_fleet_is_deterministic_across_reruns() {
    // Same seed must give the same transient fault sequence — and the same
    // quarantine decisions — run after run.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let run = || {
        let cfg = ClusterConfig::new(1, 6)
            .epochs(300)
            .chip_policy(ArbitrationPolicy::Proportional)
            .power_cap(7.2)
            .seed(2016)
            .fault_rate(0.05);
        run_chip(cfg, &design.controller)
    };
    let one = run();
    let again = run();
    // PartialEq covers the quarantine bookkeeping too, so this checks the
    // fault + quarantine sequence bit for bit, not just the FP telemetry.
    assert_eq!(one, again);
    assert_eq!(one.digest(), again.digest());
    assert!(
        one.fault_epochs > 0,
        "rate 0.05 over 1800 core-epochs: {one:?}"
    );
}

#[test]
fn nan_sensor_cores_are_quarantined_and_budget_is_respected() {
    // The issue's acceptance scenario: a 16-core fleet where four cores'
    // IPS sensors go permanently NaN mid-run. The fleet must complete,
    // flag exactly those cores as quarantined, and keep chip power within
    // the arbiter's budget.
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let bad_cores = [1, 5, 9, 13];
    let mut cfg = ClusterConfig::new(1, 16)
        .epochs(300)
        .chip_policy(ArbitrationPolicy::Proportional)
        .power_cap(19.2)
        .seed(2016);
    for &core in &bad_cores {
        cfg = cfg.core_fault(
            0,
            core,
            FaultSpec {
                kind: FaultKind::NanMeasurement { channel: 0 },
                start_epoch: 40,
                duration: u64::MAX,
            },
        );
    }
    let stats = run_chip(cfg, &design.controller);
    assert_eq!(stats.quarantined_cores, bad_cores.len(), "{stats:?}");
    for c in &stats.per_core {
        let expected = bad_cores.contains(&c.core);
        assert_eq!(c.quarantined, expected, "core {}: {c:?}", c.core);
        if expected {
            assert!(c.fault_epochs > 0, "{c:?}");
            assert!(c.quarantine_epoch.is_some(), "{c:?}");
        }
    }
    assert!(stats.fault_epochs > 0);
    // The arbiter's power accounting (stale quarantined readings replaced
    // by the pinned floor) must keep the chip within budget...
    assert!(
        stats.avg_chip_power_w <= stats.chip_cap_w,
        "avg power {} exceeds cap {}",
        stats.avg_chip_power_w,
        stats.chip_cap_w
    );
    // ...and so must the ground-truth energy-derived power, up to the slack
    // a blind core can leak: a quarantined plant's physical minimum may sit
    // above the floor target its flying-blind fallback is asked to hold.
    let actual: f64 = stats.per_core.iter().map(|c| c.avg_power_w).sum();
    assert!(
        actual <= 1.05 * stats.chip_cap_w,
        "actual power {} exceeds cap {} by more than 5%",
        actual,
        stats.chip_cap_w
    );
}

#[test]
fn tight_cap_throttles_power_below_generous_cap() {
    // Halving the chip budget must reduce what the fleet actually burns:
    // the arbiter lowers per-core references and the LQG loops follow.
    // 4.8 W is the 4-core chip's nominal budget, the most it is granted.
    let generous = run(ArbitrationPolicy::Proportional, 4.8);
    let tight = run(ArbitrationPolicy::Proportional, 2.4);
    assert!(
        tight.avg_chip_power_w < generous.avg_chip_power_w,
        "tight {tight:?} vs generous {generous:?}"
    );
}
