//! The metric registry and the result line.
//!
//! Every metric the benchmark can emit is declared once here with its
//! unit and direction; `BENCHMARK.json` must list exactly these names
//! (checked by `tests/benchmark_json.rs`). An untraced run emits every
//! [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, percentile, Summary};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Emitted name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of untraced runs. Every workload reports every one of them;
/// what an "op" and the two error percentages mean per workload is
/// documented in `perfbench/README.md`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("ops_per_s", "1/s", Higher),
    m("ips_err_pct", "%", Lower),
    m("power_err_pct", "%", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// The paper-suite experiments, in run order, with their per-layer
/// metric names.
pub const SUITE_EXPERIMENTS: &[(&str, &str)] = &[
    ("fig06", "exp.suite.fig06_s"),
    ("fig07", "exp.suite.fig07_s"),
    ("fig08", "exp.suite.fig08_s"),
    ("fig09", "exp.suite.fig09_s"),
    ("fig10", "exp.suite.fig10_s"),
    ("fig11", "exp.suite.fig11_s"),
    ("fig12", "exp.suite.fig12_s"),
    ("tab-opt", "exp.suite.tab_opt_s"),
];

/// Metrics of traced runs. A layer a workload never calls reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("sim.plant.ns_per_core_epoch", "ns", Lower),
    m("sim.llc.ns_per_chip_epoch", "ns", Lower),
    m("core.governor.decide_ns", "ns", Lower),
    m("core.governor.retarget_ns", "ns", Lower),
    m("core.governor.retarget_moved_ratio", "ratio", Higher),
    m("core.engine.ns_per_core_epoch", "ns", Lower),
    m("core.engine.fault_epochs", "count", Lower),
    m("core.engine.quarantined_cores", "count", Lower),
    m("core.design.plant_ms", "ms", Lower),
    m("core.design.identify_ms", "ms", Lower),
    m("core.design.validate_ms", "ms", Lower),
    m("fleet.bank.step_ns_per_slot", "ns", Lower),
    m("fleet.bank.enrolled_ratio", "ratio", Higher),
    m("fleet.chip.build_us_per_core", "us", Lower),
    m("fleet.chip.step_ns_per_core_epoch", "ns", Lower),
    m("fleet.chip.self_ns_per_core_epoch", "ns", Lower),
    m("fleet.chip.allocs_per_epoch", "count", Lower),
    m("fleet.arbiter.ns_per_chip_epoch", "ns", Lower),
    m("fleet.cluster.rebudget_ns", "ns", Lower),
    m("fleet.cluster.exchanges", "count", Lower),
    m("fleet.cluster.rebudget_moves", "count", Lower),
    m("fleet.shard.wait_share", "ratio", Lower),
    m("exp.suite.fig06_s", "s", Lower),
    m("exp.suite.fig07_s", "s", Lower),
    m("exp.suite.fig08_s", "s", Lower),
    m("exp.suite.fig09_s", "s", Lower),
    m("exp.suite.fig10_s", "s", Lower),
    m("exp.suite.fig11_s", "s", Lower),
    m("exp.suite.fig12_s", "s", Lower),
    m("exp.suite.tab_opt_s", "s", Lower),
    m("exp.cache.hit_ratio", "ratio", Higher),
    m("trace.overhead_ratio", "ratio", Lower),
    m("trace.coverage", "ratio", Higher),
];

/// The metric set a run emits.
pub fn metric_set(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One reported value.
#[derive(Debug, Clone, Copy)]
struct Entry {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run reports: metrics, informational extras, the
/// operation tally, failures, and provenance.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, Entry>,
    extras: BTreeMap<String, Entry>,
    provenance: BTreeMap<&'static str, String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a declared metric measured over `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or
    /// [`PER_LAYER`] — a bug in the benchmark, not in the program.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.insert(
            def.name,
            Entry {
                value,
                unit: def.unit,
                samples,
            },
        );
    }

    /// Records a declared metric as the median of `samples`, plus — as an
    /// extra named `<name>.p<percentile>` — the highest percentile on the
    /// metric's bad side that has at least ten samples beyond it (a low
    /// percentile for higher-is-better metrics). Returns the median (NaN
    /// without samples).
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) -> f64 {
        let Some(summary) = Summary::of(samples) else {
            self.set(name, f64::NAN, 0);
            return f64::NAN;
        };
        self.set(name, summary.median, summary.n);
        if let Some((p, _)) = summary.tail {
            let def = self.metrics[name];
            let higher = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|d| d.name == name && d.better == Better::Higher);
            let q = if higher { 100.0 - p } else { p };
            let v = percentile(samples, q).unwrap_or(f64::NAN);
            self.extra(&format!("{name}.p{q}"), v, def.unit, summary.n);
        }
        summary.median
    }

    /// Records `value` (with no samples) for a declared metric nothing
    /// has recorded yet.
    pub fn set_if_absent(&mut self, name: &'static str, value: f64) {
        if !self.metrics.contains_key(name) {
            self.set(name, value, 0);
        }
    }

    /// Records an informational figure, shown in the human report and the
    /// provenance line but not in the result line.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.extras.insert(
            name.to_string(),
            Entry {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records, beside a host-normalized metric (see [`crate::calib`]),
    /// the median of its raw wall-clock `samples` as the extra
    /// `<name>.wall` and the median time of a unit of reference work as
    /// `calib.ref_unit_ms`.
    pub fn extra_wall(
        &mut self,
        name: &str,
        samples: &[f64],
        unit: &'static str,
        unit_times: &[f64],
    ) {
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
        self.extra(&format!("{name}.wall"), med(samples), unit, samples.len());
        self.extra(
            "calib.ref_unit_ms",
            1e3 * med(unit_times),
            "ms",
            unit_times.len(),
        );
    }

    /// Records a provenance field.
    pub fn provenance(&mut self, key: &'static str, value: impl Into<String>) {
        self.provenance.insert(key, value.into());
    }

    /// Tallies one attempted operation; `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(what) = outcome {
            self.fail(what);
        }
    }

    /// Counts a failure against the already-tallied operations (a failed
    /// cross-check of work done earlier).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// The human-readable report: every metric and extra with unit and
    /// sample count, the failure tally, and any failure messages.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let width = self
            .metrics
            .keys()
            .map(|k| k.len())
            .chain(self.extras.keys().map(String::len))
            .max()
            .unwrap_or(0);
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "{k:>width$}  {v}");
        }
        for (name, e) in self
            .metrics
            .iter()
            .map(|(k, e)| (*k, e))
            .chain(self.extras.iter().map(|(k, e)| (k.as_str(), e)))
        {
            let _ = writeln!(
                out,
                "{name:>width$}  {:>16.6} {:<6} n={}",
                e.value, e.unit, e.samples
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:>width$}  {ratio:>16.6} failed/attempted ({}/{})",
            "fail_ratio", self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// A one-line JSON record of provenance, per-metric sample counts and
    /// units, and the extras.
    pub fn provenance_json(&self) -> String {
        let mut out = String::from("{\"provenance\": {");
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        out.push_str(&fields.join(", "));
        out.push_str("}, \"samples\": {");
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, e)| {
                format!(
                    "{}: {{\"n\": {}, \"unit\": {}}}",
                    json_str(k),
                    e.samples,
                    json_str(e.unit)
                )
            })
            .collect();
        out.push_str(&samples.join(", "));
        out.push_str("}, \"extras\": {");
        let extras: Vec<String> = self
            .extras
            .iter()
            .filter(|(_, e)| e.value.is_finite())
            .map(|(k, e)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}}}",
                    json_str(k),
                    e.value,
                    json_str(e.unit),
                    e.samples
                )
            })
            .collect();
        out.push_str(&extras.join(", "));
        out.push_str("}}");
        out
    }

    /// The final result line for a run with tracing `trace`.
    ///
    /// # Errors
    ///
    /// Names the first metric of the run's set that is missing or not
    /// finite; no result may be printed then.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for def in metric_set(trace) {
            let e = self
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !e.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", def.name, e.value));
            }
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(def.name),
                e.value,
                json_str(e.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A JSON string literal (the names and units here are plain ASCII; quotes,
/// backslashes and control characters are escaped all the same).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        for (_, name) in SUITE_EXPERIMENTS {
            assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name}");
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("a.b-c_1"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut r = Report::new();
        r.op(Ok(()));
        assert!(r.result_line(false).is_err());
        for d in END_TO_END {
            r.set(d.name, 1.5, 3);
        }
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        r.set("setup_s", f64::NAN, 3);
        assert!(r.result_line(false).is_err());
    }

    #[test]
    fn set_median_reports_the_bad_side_tail() {
        let mut r = Report::new();
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(r.set_median("setup_s", &xs), 50.5);
        assert_eq!(r.set_median("ops_per_s", &xs), 50.5);
        let human = r.human();
        assert!(human.contains("setup_s.p90"), "{human}");
        assert!(human.contains("ops_per_s.p10"), "{human}");
        assert!(r.set_median("peak_rss_mb", &[]).is_nan());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report::new();
        for d in PER_LAYER {
            r.set(d.name, 0.0, 1);
        }
        r.op(Ok(()));
        r.op(Err("digest mismatch".into()));
        let line = r.result_line(true).unwrap();
        assert!(line.contains("\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(r.human().contains("FAILED: digest mismatch"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
