//! The telemetry acceptance scenario: a ring-buffer observer on a faulted
//! 16-core chip (a one-chip cluster) must produce a JSONL trace from which
//! the quarantine epoch and cause of every latched core can be recovered —
//! and the trace must be byte-identical run to run.

use mimo_arch::exp::setup;
use mimo_arch::fleet::{
    ArbitrationPolicy, ClusterConfig, ClusterRunner, FleetStats, FleetTelemetry,
};
use mimo_arch::sim::fault::{FaultKind, FaultSpec};
use mimo_arch::sim::InputSet;
use mimo_arch::telemetry::{CauseCode, TelemetryConfig};

const BAD_CORES: [usize; 4] = [1, 5, 9, 13];

/// Runs the 16-core chip with four permanently-NaN IPS sensors and a
/// 64-record ring on every core; returns the chip's stats and telemetry.
fn traced_faulted_fleet() -> (FleetStats, FleetTelemetry) {
    let design = setup::design_mimo(InputSet::FreqCache, 2016).expect("design");
    let mut cfg = ClusterConfig::new(1, 16)
        .epochs(300)
        .chip_policy(ArbitrationPolicy::Proportional)
        .power_cap(19.2)
        .seed(2016)
        .observer(TelemetryConfig::trace(64));
    for &core in &BAD_CORES {
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
    let (mut stats, mut telemetry) = ClusterRunner::with_shared_controller(cfg, &design.controller)
        .expect("chip")
        .run_traced()
        .expect("validated chip config");
    (stats.per_chip.remove(0), telemetry.per_chip.remove(0))
}

/// Extracts an integer field like `"core":13` from one JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn jsonl_trace_recovers_quarantine_epoch_and_cause_per_latched_core() {
    let (stats, telemetry) = traced_faulted_fleet();
    assert_eq!(stats.quarantined_cores, BAD_CORES.len(), "{stats:?}");
    assert!(telemetry.is_enabled());

    // The structured view first: one quarantine event per bad core, with
    // the NaN-measurement cause and the faulted channel attached.
    let events = telemetry.quarantines();
    assert_eq!(events.len(), BAD_CORES.len(), "{events:?}");
    for &core in &BAD_CORES {
        let ev = events
            .iter()
            .find(|e| e.core == Some(core))
            .unwrap_or_else(|| panic!("no quarantine event for core {core}: {events:?}"));
        assert_eq!(ev.cause, CauseCode::NonFiniteMeasurement, "{ev:?}");
        assert_eq!(ev.channel, Some(0), "{ev:?}");
        let reported = stats.per_core[core].quarantine_epoch;
        assert_eq!(Some(ev.epoch), reported, "core {core}");
        // The sensor dies at epoch 40; latching happens at or after that.
        assert!(ev.epoch >= 40, "{ev:?}");
    }

    // Now strictly through the exported JSONL, as an external tool would
    // read it: the quarantine lines alone must recover epoch and cause.
    let mut out = Vec::new();
    telemetry.write_jsonl(&mut out).expect("serialize");
    let text = String::from_utf8(out).expect("utf8");
    let quarantine_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"type\":\"quarantine\""))
        .collect();
    assert_eq!(quarantine_lines.len(), BAD_CORES.len(), "{text}");
    for &core in &BAD_CORES {
        let line = quarantine_lines
            .iter()
            .find(|l| field_u64(l, "\"core\":") == Some(core as u64))
            .unwrap_or_else(|| panic!("no quarantine line for core {core}"));
        assert!(
            line.contains("\"cause\":\"non_finite_measurement\""),
            "{line}"
        );
        assert!(line.contains("\"channel\":0"), "{line}");
        let epoch = field_u64(line, "\"epoch\":").expect("epoch field");
        assert_eq!(Some(epoch), stats.per_core[core].quarantine_epoch, "{line}");
    }

    // Healthy cores emit no quarantine line but still close with a
    // core_end record; every core's trace is bounded by the ring.
    assert_eq!(text.matches("\"type\":\"core_end\"").count(), 16);
    for core in &telemetry.per_core {
        assert!(core.trace.len() <= 64, "core {}", core.core);
        let quarantined = BAD_CORES.contains(&core.core);
        assert_eq!(core.quarantine.is_some(), quarantined, "core {}", core.core);
        if quarantined {
            // A permanently-dead sensor shows up in the injection ledger.
            assert!(core.injected_faults.iter().sum::<u64>() > 0);
        }
    }
}

#[test]
fn jsonl_trace_is_identical_across_reruns() {
    let (stats_a, tele_a) = traced_faulted_fleet();
    let (stats_b, tele_b) = traced_faulted_fleet();
    assert_eq!(stats_a.digest(), stats_b.digest());

    let mut a = Vec::new();
    let mut b = Vec::new();
    tele_a.write_jsonl(&mut a).expect("serialize");
    tele_b.write_jsonl(&mut b).expect("serialize");
    assert!(!a.is_empty());
    assert_eq!(a, b, "trace differs between identical runs");
}
