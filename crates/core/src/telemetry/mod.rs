//! Allocation-free epoch tracing and metrics behind the [`Observer`] API.
//!
//! The paper's controller is judged entirely by per-epoch signals (IPS,
//! power, actuator settings), but the runners only exposed end-of-run
//! summaries. This module makes a run *watchable*: the engine notifies an
//! [`Observer`] at four points —
//!
//! * [`Observer::on_epoch`] — once per epoch, with a stack-allocated
//!   [`EpochRecord`] snapshot of the actuation, measurement, and health;
//! * [`Observer::on_fault`] — on every faulted epoch, with the full
//!   [`EpochError`];
//! * [`Observer::on_quarantine`] — once, when the failure streak latches
//!   the quarantine;
//! * [`Observer::on_run_end`] — when the driver finishes, with a
//!   [`RunSummary`].
//!
//! The hook is wired statically: [`crate::engine::EpochLoop`] takes the
//! observer as a type parameter defaulting to [`NullObserver`], whose
//! hooks are empty and report [`Observer::enabled`] `= false`, so the
//! default monomorphizes to the exact pre-telemetry hot loop — golden
//! digests and the zero-allocation guarantee are untouched.
//!
//! The batteries-included observer is [`TelemetrySink`]: a fixed-capacity
//! [`RingTrace`] of recent records plus [`Metrics`] (health counters,
//! per-cause fault counters, IPS/power histograms). Everything it touches
//! per epoch is fixed-size, so steady-state epochs stay allocation-free
//! with telemetry attached; serialization happens after the run via the
//! JSONL writers ([`write_jsonl`], [`save_jsonl`]).

use crate::engine::EpochError;

mod export;
mod metrics;
mod record;
mod ring;

pub use export::{record_to_json, save_jsonl, write_jsonl};
pub use metrics::{Histogram, Metrics};
pub use record::{CauseCode, EpochRecord, Health, MAX_CHANNELS};
pub use ring::RingTrace;

/// End-of-run summary handed to [`Observer::on_run_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Epochs stepped over the run, including faulted ones.
    pub epochs: u64,
    /// Faulted epochs over the run.
    pub fault_epochs: u64,
    /// Whether the loop ever latched quarantine.
    pub quarantined: bool,
    /// Epoch of the first quarantine latch, if any.
    pub quarantine_epoch: Option<u64>,
}

/// A quarantine latch event, as captured by [`TelemetrySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// Epoch at which the streak crossed the threshold.
    pub epoch: u64,
    /// Fleet core id, if the loop ran inside a fleet.
    pub core: Option<usize>,
    /// Compact cause code of the latching fault.
    pub cause: CauseCode,
    /// Offending channel for non-finite measurement/actuation causes.
    pub channel: Option<usize>,
}

impl From<&EpochError> for QuarantineEvent {
    fn from(err: &EpochError) -> Self {
        use crate::engine::EpochCause;
        let channel = match &err.cause {
            EpochCause::NonFiniteMeasurement { channel }
            | EpochCause::NonFiniteActuation { channel } => Some(*channel),
            _ => None,
        };
        QuarantineEvent {
            epoch: err.epoch,
            core: err.core,
            cause: (&err.cause).into(),
            channel,
        }
    }
}

/// Receives engine notifications. All hooks default to no-ops, so an
/// observer implements only what it cares about.
///
/// The trait is object-safe: boxed observers (`Box<dyn Observer + Send>`)
/// work anywhere a concrete one does, via the blanket impls below.
pub trait Observer {
    /// Whether this observer wants per-epoch records. The engine skips
    /// building the [`EpochRecord`] entirely when this returns `false`
    /// (statically so for [`NullObserver`]), which is what keeps the
    /// default hot loop bit-and-instruction-identical to an unobserved
    /// one.
    fn enabled(&self) -> bool {
        true
    }

    /// Called once per epoch with this epoch's record.
    fn on_epoch(&mut self, record: &EpochRecord) {
        let _ = record;
    }

    /// Called on every faulted epoch with the full error.
    fn on_fault(&mut self, error: &EpochError) {
        let _ = error;
    }

    /// Called once when the failure streak latches the quarantine.
    fn on_quarantine(&mut self, error: &EpochError) {
        let _ = error;
    }

    /// Called when the driver declares the run over (see
    /// [`crate::engine::EpochLoop::finish`]).
    fn on_run_end(&mut self, summary: &RunSummary) {
        let _ = summary;
    }
}

/// The default observer: every hook is a no-op and [`Observer::enabled`]
/// is statically `false`, so an `EpochLoop` with this observer compiles to
/// the exact pre-telemetry hot loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn on_epoch(&mut self, record: &EpochRecord) {
        (**self).on_epoch(record);
    }

    fn on_fault(&mut self, error: &EpochError) {
        (**self).on_fault(error);
    }

    fn on_quarantine(&mut self, error: &EpochError) {
        (**self).on_quarantine(error);
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        (**self).on_run_end(summary);
    }
}

impl<O: Observer + ?Sized> Observer for Box<O> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn on_epoch(&mut self, record: &EpochRecord) {
        (**self).on_epoch(record);
    }

    fn on_fault(&mut self, error: &EpochError) {
        (**self).on_fault(error);
    }

    fn on_quarantine(&mut self, error: &EpochError) {
        (**self).on_quarantine(error);
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        (**self).on_run_end(summary);
    }
}

/// `None` is a disabled observer; `Some` forwards. This is how the fleet
/// threads one statically-typed observer slot through every core whether
/// telemetry is on or off.
impl<O: Observer> Observer for Option<O> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Observer::enabled)
    }

    fn on_epoch(&mut self, record: &EpochRecord) {
        if let Some(o) = self {
            o.on_epoch(record);
        }
    }

    fn on_fault(&mut self, error: &EpochError) {
        if let Some(o) = self {
            o.on_fault(error);
        }
    }

    fn on_quarantine(&mut self, error: &EpochError) {
        if let Some(o) = self {
            o.on_quarantine(error);
        }
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        if let Some(o) = self {
            o.on_run_end(summary);
        }
    }
}

/// Configuration for a [`TelemetrySink`] (and, through
/// `FleetConfig::observer`, for per-core fleet telemetry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; when `false` no sink is attached at all.
    pub enabled: bool,
    /// Ring-buffer capacity for the per-loop epoch trace (0 = metrics
    /// only, no trace).
    pub trace_capacity: usize,
}

impl TelemetryConfig {
    /// Telemetry fully disabled (the default).
    pub fn off() -> Self {
        TelemetryConfig {
            enabled: false,
            trace_capacity: 0,
        }
    }

    /// Telemetry enabled with a ring trace of `capacity` records.
    pub fn trace(capacity: usize) -> Self {
        TelemetryConfig {
            enabled: true,
            trace_capacity: capacity,
        }
    }

    /// Telemetry enabled with metrics only (no per-epoch trace).
    pub fn metrics_only() -> Self {
        TelemetryConfig::trace(0)
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::off()
    }
}

/// The standard observer: ring trace + metrics + quarantine capture.
///
/// Per-epoch work is bounded and allocation-free: one ring slot write
/// and a handful of counter increments.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    /// Recent epoch records, oldest overwritten first.
    pub trace: RingTrace,
    /// Aggregated counters and histograms.
    pub metrics: Metrics,
    /// First quarantine latch observed, if any.
    pub quarantine: Option<QuarantineEvent>,
    /// End-of-run summary, populated by [`Observer::on_run_end`].
    pub summary: Option<RunSummary>,
}

impl TelemetrySink {
    /// Builds a sink per `cfg` (ring capacity).
    pub fn new(cfg: &TelemetryConfig) -> Self {
        TelemetrySink {
            trace: RingTrace::with_capacity(cfg.trace_capacity),
            metrics: Metrics::new(),
            quarantine: None,
            summary: None,
        }
    }
}

impl Observer for TelemetrySink {
    fn on_epoch(&mut self, record: &EpochRecord) {
        self.metrics.record(record);
        self.trace.push(*record);
    }

    fn on_quarantine(&mut self, error: &EpochError) {
        self.metrics.quarantines += 1;
        if self.quarantine.is_none() {
            self.quarantine = Some(error.into());
        }
    }

    fn on_run_end(&mut self, summary: &RunSummary) {
        self.summary = Some(*summary);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EpochCause;
    use mimo_linalg::Vector;

    fn record(epoch: u64, health: Health, cause: Option<CauseCode>) -> EpochRecord {
        let u = Vector::from_slice(&[1.3, 6.0]);
        let y = Vector::from_slice(&[2.5, 1.75]);
        EpochRecord::capture(epoch, Some(2), &u, &y, health, cause)
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.enabled());
        // Blanket impls forward `enabled`.
        let mut null = NullObserver;
        assert!(!Observer::enabled(&&mut null));
        let boxed: Box<dyn Observer> = Box::new(NullObserver);
        assert!(!boxed.enabled());
        assert!(!None::<TelemetrySink>.enabled());
        assert!(Some(TelemetrySink::new(&TelemetryConfig::trace(4))).enabled());
    }

    #[test]
    fn sink_accumulates_trace_metrics_and_quarantine() {
        let mut sink = TelemetrySink::new(&TelemetryConfig::trace(8));
        sink.on_epoch(&record(0, Health::Healthy, None));
        sink.on_epoch(&record(
            1,
            Health::Degraded,
            Some(CauseCode::NonFiniteMeasurement),
        ));
        let err = EpochError {
            epoch: 2,
            core: Some(2),
            cause: EpochCause::NonFiniteMeasurement { channel: 1 },
        };
        sink.on_fault(&err);
        sink.on_quarantine(&err);
        sink.on_epoch(&record(
            2,
            Health::Quarantined,
            Some(CauseCode::NonFiniteMeasurement),
        ));
        sink.on_run_end(&RunSummary {
            epochs: 3,
            fault_epochs: 2,
            quarantined: true,
            quarantine_epoch: Some(2),
        });
        assert_eq!(sink.trace.len(), 3);
        assert_eq!(sink.metrics.epochs, 3);
        assert_eq!(sink.metrics.fault_epochs, 2);
        assert_eq!(sink.metrics.quarantines, 1);
        let q = sink.quarantine.expect("quarantine captured");
        assert_eq!(q.epoch, 2);
        assert_eq!(q.core, Some(2));
        assert_eq!(q.cause, CauseCode::NonFiniteMeasurement);
        assert_eq!(q.channel, Some(1));
        assert_eq!(sink.summary.unwrap().quarantine_epoch, Some(2));
        // A second latch (e.g. after a fallback rescue fails) keeps the
        // first event but still counts.
        sink.on_quarantine(&EpochError { epoch: 9, ..err });
        assert_eq!(sink.metrics.quarantines, 2);
        assert_eq!(sink.quarantine.unwrap().epoch, 2);
    }
}
