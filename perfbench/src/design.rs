//! The `design-sweep` workload and the composed, traced design flow.
//!
//! Untraced, every operation is one fresh synthesis through the public
//! `setup::design_mimo_with` (no `DesignCache`). Traced, the benchmark
//! composes the same flow from `DesignFlow::run_multi`/`validate` around
//! timed plants, and the result must be bit-equal to the public call.

use std::time::Instant;

use mimo_core::design::{DesignFlow, ValidatedDesign};
use mimo_core::weights::WeightSet;
use mimo_core::Fnv1a;
use mimo_exp::setup;
use mimo_sim::InputSet;

use crate::calib::{HostClock, Tick};
use crate::metrics::Report;
use crate::probe::{elapsed_ns, take_spans, Span, SpanCost, TimedPlant};
use crate::stats::median;
use crate::{mix, Deadline, DEFAULT_SEED};

/// One synthesis request of the sweep.
#[derive(Debug, Clone)]
pub struct DesignOp {
    /// Input set the controller actuates.
    pub input_set: InputSet,
    /// Table V weights (`None` = the flow's Table III defaults).
    pub weights: Option<WeightSet>,
    /// Design seed.
    pub seed: u64,
}

/// Design operations per cycle: enough per-op seeds that a cycle's cost
/// (which varies from seed to seed with the number of RSA redesigns)
/// averages out between workload seeds.
pub const CYCLE_OPS: usize = 48;

/// The sweep's cycle of operations for a workload seed. The input sets and
/// weights repeat in a fixed proportion — the four Table V weight sets and
/// the Table III defaults on the two-input system, then the three-input
/// system at its defaults: five two-input designs to one three-input
/// design — and every op gets its own seed derived from the workload seed.
pub fn sweep_ops(seed: u64) -> Vec<DesignOp> {
    let mut shapes: Vec<(InputSet, Option<WeightSet>)> = WeightSet::table_v()
        .into_iter()
        .map(|w| (InputSet::FreqCache, Some(w)))
        .collect();
    shapes.push((InputSet::FreqCache, None));
    shapes.push((InputSet::FreqCacheRob, None));
    (0..CYCLE_OPS)
        .map(|k| {
            let (input_set, weights) = shapes[k % shapes.len()].clone();
            DesignOp {
                input_set,
                weights,
                // Kept well below u64::MAX: the design helpers add small
                // offsets to the seed for their per-plant streams.
                seed: mix(seed, k as u64) % 1_000_000_007,
            }
        })
        .collect()
}

/// A bit-exact fingerprint of a design: FNV-1a over its `Debug` rendering,
/// which prints every `f64` with round-trip precision.
///
/// # Errors
///
/// Reports a design holding a NaN or infinite value.
pub fn fingerprint(d: &ValidatedDesign) -> Result<u64, String> {
    let text = format!("{d:?}");
    let non_finite = text
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '.'))
        .any(|tok| tok == "NaN" || tok == "inf");
    if non_finite {
        return Err("design holds a non-finite value".into());
    }
    let mut h = Fnv1a::new();
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
    Ok(h.finish())
}

/// Time spent in one composed synthesis, split by layer, with the probe's
/// own cost taken out.
#[derive(Debug, Default, Clone, Copy)]
pub struct DesignSpans {
    /// Time in plant epochs run for identification and validation.
    pub plant_ns: f64,
    /// Plant epochs run.
    pub plant_epochs: u64,
    /// `DesignFlow::run_multi` minus its plant time (ARX fit,
    /// realization, DARE/LQG synthesis).
    pub identify_ns: f64,
    /// `DesignFlow::validate` minus its plant time (model error, RSA).
    pub validate_ns: f64,
    /// Wall time of the whole composed synthesis, plant construction
    /// included.
    pub wall_ns: f64,
}

impl DesignSpans {
    fn add(self, o: DesignSpans) -> DesignSpans {
        DesignSpans {
            plant_ns: self.plant_ns + o.plant_ns,
            plant_epochs: self.plant_epochs + o.plant_epochs,
            identify_ns: self.identify_ns + o.identify_ns,
            validate_ns: self.validate_ns + o.validate_ns,
            wall_ns: self.wall_ns + o.wall_ns,
        }
    }
}

/// `setup::design_mimo_with`, composed from its public parts around timed
/// plants. Must stay bit-equal to the public call.
///
/// # Errors
///
/// Propagates identification/synthesis/RSA failures.
pub fn compose(op: &DesignOp, cost: SpanCost) -> mimo_core::Result<(ValidatedDesign, DesignSpans)> {
    let t_wall = Instant::now();
    let mut flow = match op.input_set {
        InputSet::FreqCache => DesignFlow::two_input(),
        InputSet::FreqCacheRob => DesignFlow::three_input(),
    };
    if let Some(w) = &op.weights {
        flow = flow.with_weights(w.clone());
    }
    flow.seed = op
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(flow.seed);
    let timed = |plants: Vec<mimo_sim::Processor>| -> Vec<TimedPlant<mimo_sim::Processor>> {
        plants
            .into_iter()
            .map(|inner| TimedPlant { inner })
            .collect()
    };
    let mut training = timed(setup::training_plants(op.input_set, op.seed));
    let _ = take_spans();
    let t0 = Instant::now();
    let result = flow.run_multi(training.iter_mut())?;
    let identify = Span::since(t0);
    let identify_plant = take_spans().plant;
    let mut validation = timed(setup::validation_plants(op.input_set, op.seed));
    let t1 = Instant::now();
    let design = flow.validate(result, validation.iter_mut())?;
    let validate = Span::since(t1);
    let validate_plant = take_spans().plant;
    let plant = |s: Span| s.ns as f64 - cost.inside * s.calls as f64;
    Ok((
        design,
        DesignSpans {
            plant_ns: plant(identify_plant) + plant(validate_plant),
            plant_epochs: identify_plant.calls + validate_plant.calls,
            identify_ns: cost.self_ns(identify, &[identify_plant]),
            validate_ns: cost.self_ns(validate, &[validate_plant]),
            wall_ns: elapsed_ns(t_wall) as f64,
        },
    ))
}

/// Synthesizes `op` through the public API; returns the design, its
/// fingerprint, and the time the synthesis alone took.
fn public_design(op: &DesignOp) -> Result<(ValidatedDesign, u64, f64), String> {
    let t = Instant::now();
    let d = setup::design_mimo_with(op.input_set, op.seed, op.weights.clone());
    let elapsed = t.elapsed().as_secs_f64();
    let d = d.map_err(|e| format!("design {op:?}: {e}"))?;
    let fp = fingerprint(&d)?;
    Ok((d, fp, elapsed))
}

/// Runs the untraced design sweep: whole cycles of fresh syntheses until
/// the deadline, at least one cycle. Throughput is the cycle's op count
/// over the sum of each op's median host-normalized time across cycles.
///
/// Each cycle starts with the set-up every cluster deployment starts with:
/// one synthesis of the deployed controller (the two-input design at
/// [`DEFAULT_SEED`]), which must repeat bit for bit. Its time is
/// `setup_s`; it is not one of the cycle's ops.
pub fn run(seed: u64, deadline: &Deadline, report: &mut Report) {
    let ops = sweep_ops(seed);
    let deployed = DesignOp {
        input_set: InputSet::FreqCache,
        weights: None,
        seed: DEFAULT_SEED,
    };
    let mut deployed_fp = None;
    let mut clock = HostClock::new(1);
    let (mut setup_s, mut raw_cycle_s) = (Vec::new(), Vec::new());
    let mut times: Vec<Vec<(f64, Tick)>> = vec![Vec::new(); ops.len()];
    let mut first: Vec<Option<u64>> = vec![None; ops.len()];
    let mut errs = (Vec::new(), Vec::new());
    loop {
        report.op(public_design(&deployed).and_then(|(_, fp, elapsed)| {
            if *deployed_fp.get_or_insert(fp) != fp {
                return Err("the deployed design is not deterministic".into());
            }
            setup_s.push((elapsed, clock.mark(elapsed)));
            Ok(())
        }));
        let mut raw = 0.0;
        for (k, op) in ops.iter().enumerate() {
            report.op(public_design(op).and_then(|(d, fp, elapsed)| {
                match first[k] {
                    None => {
                        first[k] = Some(fp);
                        errs.0.push(100.0 * d.max_model_error_frac[0]);
                        errs.1.push(100.0 * d.max_model_error_frac[1]);
                    }
                    Some(f) if f != fp => {
                        return Err(format!("design op {k} is not deterministic"))
                    }
                    Some(_) => {}
                }
                times[k].push((elapsed, clock.mark(elapsed)));
                raw += elapsed;
                Ok(())
            }));
        }
        raw_cycle_s.push(ops.len() as f64 / raw);
        if deadline.passed() {
            break;
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let normalized =
        |v: &[(f64, Tick)]| -> Vec<f64> { v.iter().map(|&(s, t)| s * clock.scale(t)).collect() };
    let setup_s = normalized(&setup_s);
    let cycle_s: f64 = times
        .iter()
        .map(|t| median(&normalized(t)).unwrap_or(f64::NAN))
        .sum();
    let rate = ops.len() as f64 / cycle_s;
    let n = times.iter().map(Vec::len).sum();
    report.set_median("setup_s", &setup_s);
    report.set("ops_per_s", rate, n);
    report.set("ips_err_pct", mean(&errs.0), errs.0.len());
    report.set("power_err_pct", mean(&errs.1), errs.1.len());
    report.extra("designs_per_s", rate, "1/s", n);
    report.extra_wall("ops_per_s", &raw_cycle_s, "1/s", &clock.unit_times());
}

/// Runs the traced design sweep: every op runs through the public call
/// (timed, the untraced side of the overhead ratio) and then composed
/// around timed plants, which must be bit-equal to it.
pub fn run_traced(seed: u64, deadline: &Deadline, report: &mut Report) {
    let ops = sweep_ops(seed);
    let cost = SpanCost::calibrate();
    let mut first: Vec<Option<u64>> = vec![None; ops.len()];
    let mut untraced_s = 0.0;
    let mut acc = DesignSpans::default();
    let mut designs = 0usize;
    loop {
        for (k, op) in ops.iter().enumerate() {
            let outcome = public_design(op).and_then(|(_, reference, elapsed)| {
                if *first[k].get_or_insert(reference) != reference {
                    return Err(format!("design op {k} is not deterministic"));
                }
                let (d, spans) =
                    compose(op, cost).map_err(|e| format!("composed design {op:?}: {e}"))?;
                if fingerprint(&d)? != reference {
                    return Err(format!(
                        "composed design op {k} differs from setup::design_mimo_with"
                    ));
                }
                designs += 1;
                untraced_s += elapsed;
                acc = acc.add(spans);
                Ok(())
            });
            report.op(outcome);
        }
        if deadline.passed() {
            break;
        }
    }
    record_design_spans(report, acc, designs);
    report.set(
        "sim.plant.ns_per_core_epoch",
        acc.plant_ns / acc.plant_epochs.max(1) as f64,
        designs,
    );
    report.set(
        "trace.overhead_ratio",
        acc.wall_ns / 1e9 / untraced_s,
        designs,
    );
    report.set(
        "trace.coverage",
        (acc.plant_ns + acc.identify_ns + acc.validate_ns) / acc.wall_ns,
        designs,
    );
}

/// Reports the per-design layer split of `designs` composed syntheses.
pub fn record_design_spans(report: &mut Report, acc: DesignSpans, designs: usize) {
    let per = |ns: f64| ns / 1e6 / designs.max(1) as f64;
    report.set("core.design.plant_ms", per(acc.plant_ns), designs);
    report.set("core.design.identify_ms", per(acc.identify_ns), designs);
    report.set("core.design.validate_ms", per(acc.validate_ns), designs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_mixes_input_sets_five_to_one_with_distinct_seeds() {
        let ops = sweep_ops(9);
        assert_eq!(ops.len(), CYCLE_OPS);
        let three = ops
            .iter()
            .filter(|o| o.input_set == InputSet::FreqCacheRob)
            .count();
        assert_eq!(three * 6, CYCLE_OPS);
        let weighted = ops.iter().filter(|o| o.weights.is_some()).count();
        assert_eq!(weighted * 6, CYCLE_OPS * 4);
        let mut seeds: Vec<u64> = ops.iter().map(|o| o.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), CYCLE_OPS);
        assert_eq!(sweep_ops(9)[5].seed, ops[5].seed);
        assert_ne!(sweep_ops(10)[5].seed, ops[5].seed);
    }
}
