//! Criterion benchmarks: runtime cost of the controller pieces and the
//! per-figure experiment kernels.
//!
//! The paper's overhead claim (§VI-C): the controller "performs four
//! floating-point vector-matrix multiplies" per 50 µs epoch and "stores
//! less than 100 floating-point numbers" — `lqg_step` measures our
//! equivalent; the other benches cover the design-time costs (DARE,
//! identification) and the simulator substrate, plus one scaled-down
//! kernel per figure experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mimo_core::dare::solve_dare;
use mimo_core::design::DesignFlow;
use mimo_core::governor::{fast_governor, Governor, MimoGovernor};
use mimo_core::optimizer::{Metric, Optimizer, MAX_TRIES};
use mimo_exp::setup;
use mimo_linalg::{eigen, Matrix, Vector};
use mimo_sim::{InputSet, Plant, ProcessorBuilder};
use mimo_sysid::arx::{ArxModel, ArxOrders};

fn bench_linalg(c: &mut Criterion) {
    let a = Matrix::from_fn(8, 8, |i, j| {
        if i == j {
            2.0
        } else {
            0.1 * ((i + j) % 5) as f64
        }
    });
    c.bench_function("linalg/lu_solve_8x8", |b| {
        let rhs = Matrix::identity(8);
        b.iter(|| black_box(&a).solve(black_box(&rhs)).unwrap())
    });
    c.bench_function("linalg/eigenvalues_8x8", |b| {
        b.iter(|| eigen::eigenvalues(black_box(&a)).unwrap())
    });
}

fn bench_dare(c: &mut Criterion) {
    // The augmented design system of the 2-input controller is 8x8.
    let a = Matrix::from_fn(8, 8, |i, j| {
        if i == j {
            0.9
        } else if j == i + 1 {
            0.2
        } else {
            0.0
        }
    });
    let b_m = Matrix::from_fn(8, 2, |i, j| if i % 2 == j { 0.5 } else { 0.1 });
    let q = Matrix::identity(8);
    let r = Matrix::diag(&[1.0, 2.0]);
    c.bench_function("control/dare_8x8", |b| {
        b.iter(|| solve_dare(black_box(&a), black_box(&b_m), &q, &r).unwrap())
    });
}

fn bench_lqg_step(c: &mut Criterion) {
    // §VI-C overhead claim: one controller invocation per 50 µs epoch.
    let design = setup::design_mimo(InputSet::FreqCache, 1).expect("design");
    let mut ctrl = design.controller;
    ctrl.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    let y = Vector::from_slice(&[2.3, 1.7]);
    c.bench_function("control/lqg_step", |b| b.iter(|| ctrl.step(black_box(&y))));
    // The allocation-free path the epoch engine actually drives: same
    // arithmetic, every temporary in the scratch workspace.
    let mut out = Vector::zeros(2);
    c.bench_function("control/lqg_step_into", |b| {
        b.iter(|| {
            ctrl.step_into(black_box(&y), &mut out);
            black_box(out[0])
        })
    });
    // The stack-allocated controller (the path the fleet actually steps
    // after `fast_governor`): bit-identical arithmetic, monomorphized over
    // the 2-input architecture's fixed shape.
    let mut fixed = setup::design_mimo(InputSet::FreqCache, 1)
        .expect("design")
        .controller
        .into_static::<2, 2, 4, 8>()
        .expect("two-input architecture is 2-in/2-out/4-state");
    fixed.set_reference(&Vector::from_slice(&[2.8, 1.9]));
    c.bench_function("control/lqg_step_into_static", |b| {
        b.iter(|| {
            fixed.step_into(black_box(&y), &mut out);
            black_box(out[0])
        })
    });
    // Retargeting with an unchanged reference (the fleet arbiter's common
    // case) must cost a compare, not a steady-state resolve.
    let targets = Vector::from_slice(&[2.8, 1.9]);
    c.bench_function("control/set_reference_unchanged", |b| {
        b.iter(|| ctrl.set_reference(black_box(&targets)))
    });
}

/// The shared epoch engine against the same governor/plant pair the
/// hand-rolled `fig/tracking_200_epochs` kernel drives: the difference is
/// the `decide_into`/`apply_into` hot path vs the allocating `decide`/
/// `apply` calls.
fn bench_engine(c: &mut Criterion) {
    use mimo_core::engine::EpochLoop;
    let design = setup::design_mimo(InputSet::FreqCache, 5).expect("design");
    c.bench_function("engine/tracking_200_epochs", |b| {
        b.iter(|| {
            let gov = MimoGovernor::new(design.controller.clone());
            let plant = setup::plant("astar", InputSet::FreqCache, 6);
            let mut lp = EpochLoop::new(gov, plant);
            lp.set_targets(&Vector::from_slice(&[2.8, 1.9]));
            lp.seed_outputs(&Vector::from_slice(&[1.0, 1.0]));
            for _ in 0..200 {
                lp.step();
            }
            black_box(lp.outputs()[0])
        })
    });
}

fn bench_sim_epoch(c: &mut Criterion) {
    let mut cpu = ProcessorBuilder::new()
        .app("astar")
        .seed(3)
        .build()
        .unwrap();
    let u = Vector::from_slice(&[1.3, 6.0, 48.0]);
    c.bench_function("sim/processor_epoch", |b| {
        b.iter(|| cpu.apply(black_box(&u)))
    });
}

fn bench_sysid_fit(c: &mut Criterion) {
    // 2-in 2-out ARX fit over 2000 samples (one identification run).
    let mut u = Vec::new();
    let mut y = Vec::new();
    let mut state = [0.0_f64; 2];
    for t in 0..2000usize {
        let ut = Vector::from_slice(&[
            ((t * 31) % 11) as f64 / 5.0 - 1.0,
            ((t * 17) % 7) as f64 / 3.0 - 1.0,
        ]);
        let yt = Vector::from_slice(&[
            0.6 * state[0] + 0.4 * ut[0] + 0.1 * ut[1],
            0.5 * state[1] + 0.2 * ut[0] + 0.5 * ut[1],
        ]);
        state = [yt[0], yt[1]];
        u.push(ut);
        y.push(yt);
    }
    let orders = ArxOrders {
        na: 1,
        nb: 1,
        direct_feedthrough: false,
    };
    c.bench_function("sysid/arx_fit_2000", |b| {
        b.iter(|| ArxModel::fit(black_box(&u), black_box(&y), orders).unwrap())
    });
}

/// One scaled-down kernel per paper experiment (the figure binaries run
/// the full versions; these track the cost of each experiment's inner
/// loop).
fn bench_figures(c: &mut Criterion) {
    // Figure 6/8/11/12 kernel: a tracking run.
    let design = setup::design_mimo(InputSet::FreqCache, 5).expect("design");
    c.bench_function("fig/tracking_200_epochs", |b| {
        b.iter(|| {
            let mut gov = MimoGovernor::new(design.controller.clone());
            gov.set_targets(&Vector::from_slice(&[2.8, 1.9]));
            let mut plant = setup::plant("astar", InputSet::FreqCache, 6);
            let mut y = Vector::from_slice(&[1.0, 1.0]);
            for _ in 0..200 {
                let u = gov.decide(&y, plant.phase_changed());
                y = plant.apply(&u);
            }
            black_box(y)
        })
    });
    // Figure 7 kernel: identification + realization at dimension 4.
    c.bench_function("fig/identify_dim4", |b| {
        b.iter(|| {
            let mut plant = ProcessorBuilder::new()
                .app("namd")
                .seed(7)
                .input_set(InputSet::FreqCache)
                .build()
                .unwrap();
            let mut flow = DesignFlow::two_input();
            flow.segment_epochs = 250;
            black_box(flow.run(&mut plant).unwrap().model.state_dim())
        })
    });
    // Figures 9/10 kernel: one optimizer search step cycle.
    c.bench_function("fig/optimizer_search", |b| {
        b.iter(|| {
            let mut opt = Optimizer::new(Metric::EnergyDelay, 2.0, 1.0, MAX_TRIES);
            let mut ips = 2.0;
            let mut p = 1.0;
            while let Some(t) = opt.observe(ips, p) {
                ips = t[0].min(3.0);
                p = t[1].clamp(0.3, 2.5);
            }
            black_box(opt.targets())
        })
    });
}

/// Fleet-runtime cost: one chip-budgeted multi-core epoch sweep, plus the
/// arbiter alone.
fn bench_fleet(c: &mut Criterion) {
    let design = setup::design_mimo(InputSet::FreqCache, 9).expect("design");
    // Default path: `fast_governor` picks static storage for this shape.
    c.bench_function("fleet/16_cores_50_epochs", |b| {
        b.iter(|| {
            let cfg = mimo_fleet::FleetConfig::new(16).epochs(50).seed(11);
            let runner =
                mimo_fleet::FleetRunner::with_shared_controller(cfg, &design.controller).unwrap();
            black_box(runner.run().unwrap().digest())
        })
    });
    // The dynamic path pinned, for measuring the static-storage gap (the
    // science is bit-identical, only the step cost differs).
    c.bench_function("fleet/16_cores_50_epochs_dynamic", |b| {
        b.iter(|| {
            let cfg = mimo_fleet::FleetConfig::new(16).epochs(50).seed(11);
            let runner = mimo_fleet::FleetRunner::new(cfg, |_, _| {
                Box::new(MimoGovernor::new(design.controller.clone()))
            })
            .unwrap();
            black_box(runner.run().unwrap().digest())
        })
    });
    c.bench_function("fleet/arbitrate_64_cores", |b| {
        let mut arb = mimo_fleet::BudgetArbiter::new(
            76.8,
            mimo_fleet::ArbitrationPolicy::Proportional,
            [3.0, 1.9],
            vec![1.0; 64],
        );
        let obs: Vec<mimo_fleet::CoreObs> = (0..64)
            .map(|i| mimo_fleet::CoreObs {
                ips: 2.0 + 0.01 * i as f64,
                power: 1.0 + 0.01 * i as f64,
            })
            .collect();
        b.iter(|| black_box(arb.arbitrate(black_box(&obs))))
    });
}

/// Cluster-runtime cost: a 4-chip × 4-core hierarchy stepped through two
/// exchange windows, barrier-free within each window, at one and several
/// shards — plus a lone chip's serial epoch beat with LLC coupling on.
fn bench_cluster(c: &mut Criterion) {
    let design = setup::design_mimo(InputSet::FreqCache, 9).expect("design");
    for shards in [1usize, 4] {
        c.bench_function(&format!("cluster/4x4_50_epochs_s{shards}"), |b| {
            b.iter(|| {
                let cfg = mimo_fleet::ClusterConfig::new(4, 4)
                    .epochs(50)
                    .exchange_period(25)
                    .shards(shards)
                    .llc_contention(mimo_sim::LlcConfig::for_cores(4).total_ways(16))
                    .seed(11);
                let runner =
                    mimo_fleet::ClusterRunner::with_shared_controller(cfg, &design.controller)
                        .unwrap();
                black_box(runner.run().unwrap().digest())
            })
        });
    }
    c.bench_function("cluster/chip_step_4_cores_llc", |b| {
        b.iter(|| {
            let cfg = mimo_fleet::FleetConfig::new(4)
                .epochs(50)
                .seed(11)
                .llc_contention(mimo_sim::LlcConfig::for_cores(4).total_ways(16));
            let mut factory =
                |_: usize, _: &mimo_fleet::CoreSpec| fast_governor(design.controller.clone());
            let mut chip = mimo_fleet::Chip::build(0, cfg, &mut factory).unwrap();
            for _ in 0..50 {
                chip.step_epoch();
            }
            black_box(chip.into_results().0.digest())
        })
    });
}

criterion_group!(
    benches,
    bench_linalg,
    bench_dare,
    bench_lqg_step,
    bench_engine,
    bench_sim_epoch,
    bench_sysid_fit,
    bench_figures,
    bench_fleet,
    bench_cluster
);
criterion_main!(benches);
