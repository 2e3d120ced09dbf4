//! Measurement probes the benchmark wraps around the program's public
//! interfaces: a counting allocator, delegating timed `Governor` and
//! `Plant` wrappers, and host facts for provenance.
//!
//! Span accumulators are thread-local `Cell`s: traced drivers are serial,
//! so the probes add no atomics or locks to the code they measure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use mimo_core::governor::Governor;
use mimo_linalg::Vector;
use mimo_sim::Plant;

/// Counts heap allocations (alloc, alloc_zeroed, realloc) while enabled;
/// forwards everything to the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn count() {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f` with allocation counting on and returns its result with the
/// number of allocations made meanwhile (by any thread — callers run it
/// while no other thread of theirs is working).
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Accumulated time and call count of one span kind.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Span {
    /// Total nanoseconds inside the span.
    pub ns: u64,
    /// Number of calls.
    pub calls: u64,
}

impl Span {
    /// One call that started at `t0` and ends now.
    pub fn since(t0: Instant) -> Self {
        Span {
            ns: elapsed_ns(t0),
            calls: 1,
        }
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, o: Span) {
        self.ns += o.ns;
        self.calls += o.calls;
    }
}

/// The spans the timed wrappers record on this thread.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Spans {
    /// `Governor::decide_into`.
    pub decide: Span,
    /// `Governor::set_targets`.
    pub retarget: Span,
    /// `Plant::apply_into` / `apply` / `observe`.
    pub plant: Span,
}

thread_local! {
    static SPANS: Cell<Spans> = const {
        Cell::new(Spans {
            decide: Span { ns: 0, calls: 0 },
            retarget: Span { ns: 0, calls: 0 },
            plant: Span { ns: 0, calls: 0 },
        })
    };
}

/// Returns this thread's accumulated spans and resets them to zero.
pub fn take_spans() -> Spans {
    SPANS.with(|s| s.replace(Spans::default()))
}

fn add(f: impl FnOnce(&mut Spans)) {
    SPANS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A delegating governor that times `decide_into` and `set_targets`.
/// Decisions pass through untouched, so results stay bit-identical to the
/// wrapped governor.
pub struct TimedGovernor {
    inner: Box<dyn Governor + Send>,
}

impl TimedGovernor {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Governor + Send>) -> Self {
        TimedGovernor { inner }
    }
}

impl Governor for TimedGovernor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn set_targets(&mut self, y0: &Vector) {
        let t0 = Instant::now();
        self.inner.set_targets(y0);
        let ns = elapsed_ns(t0);
        add(|s| {
            s.retarget.ns += ns;
            s.retarget.calls += 1;
        });
    }

    fn decide(&mut self, y: &Vector, phase_changed: bool) -> Vector {
        self.inner.decide(y, phase_changed)
    }

    fn decide_into(
        &mut self,
        y: &Vector,
        phase_changed: bool,
        out: &mut Vector,
    ) -> mimo_core::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.decide_into(y, phase_changed, out);
        let ns = elapsed_ns(t0);
        add(|s| {
            s.decide.ns += ns;
            s.decide.calls += 1;
        });
        r
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A delegating plant that times every epoch it runs (`apply_into`,
/// `apply`, `observe`). Outputs pass through untouched.
pub struct TimedPlant<P: Plant> {
    /// The wrapped plant.
    pub inner: P,
}

impl<P: Plant> TimedPlant<P> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let ns = elapsed_ns(t0);
        add(|s| {
            s.plant.ns += ns;
            s.plant.calls += 1;
        });
        r
    }
}

impl<P: Plant> Plant for TimedPlant<P> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn input_grids(&self) -> Vec<Vec<f64>> {
        self.inner.input_grids()
    }

    fn apply(&mut self, u: &Vector) -> Vector {
        self.timed(|p| p.apply(u))
    }

    fn observe(&mut self) -> Vector {
        self.timed(|p| p.observe())
    }

    fn apply_into(&mut self, u: &Vector, out: &mut Vector) -> mimo_sim::Result<()> {
        self.timed(|p| p.apply_into(u, out))
    }

    fn phase_changed(&self) -> bool {
        self.inner.phase_changed()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// What one probe span costs, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    /// Added to the enclosing span per probe span: two clock reads plus
    /// the accumulation.
    pub total: f64,
    /// The part of that cost the probe span reads as its own duration.
    pub inside: f64,
}

impl SpanCost {
    /// Calibrates the probe on this thread (medians over batches of
    /// empty spans).
    pub fn calibrate() -> Self {
        const BATCH: u32 = 2_000;
        let saved = take_spans();
        let mut total = Vec::new();
        let mut inside = Vec::new();
        for _ in 0..15 {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let t = Instant::now();
                let ns = elapsed_ns(std::hint::black_box(t));
                add(|s| {
                    s.plant.ns += ns;
                    s.plant.calls += 1;
                });
            }
            total.push(elapsed_ns(t0) as f64 / f64::from(BATCH));
            inside.push(take_spans().plant.mean_ns());
        }
        SPANS.with(|s| s.set(saved));
        let med = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        SpanCost {
            total: med(&mut total),
            inside: med(&mut inside),
        }
    }

    /// Mean duration of `span` with the probe's own share removed.
    pub fn mean_ns(&self, span: Span) -> f64 {
        if span.calls == 0 {
            0.0
        } else {
            span.mean_ns() - self.inside
        }
    }

    /// Self time of a parent span: its measured time minus the measured
    /// time of the `nested` spans inside it and the probe cost they and
    /// the parent's own `calls` added.
    pub fn self_ns(&self, parent: Span, nested: &[Span]) -> f64 {
        let nested_ns: u64 = nested.iter().map(|s| s.ns).sum();
        let nested_calls: u64 = nested.iter().map(|s| s.calls).sum();
        parent.ns as f64
            - nested_ns as f64
            - (self.total - self.inside) * nested_calls as f64
            - self.inside * parent.calls as f64
    }
}

/// Hardware threads available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` in the working directory; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mimo_core::governor::FixedGovernor;

    #[test]
    fn timed_governor_times_calls_and_passes_decisions_through() {
        let _ = take_spans();
        let mut g = TimedGovernor::new(Box::new(FixedGovernor::new(Vector::from_slice(&[
            1.3, 6.0,
        ]))));
        let a = Vector::from_slice(&[3.0, 1.9]);
        let b = Vector::from_slice(&[3.0, 1.8]);
        g.set_targets(&a);
        g.set_targets(&a);
        g.set_targets(&b);
        let mut out = Vector::zeros(2);
        g.decide_into(&a, false, &mut out).unwrap();
        assert_eq!(out.as_slice(), &[1.3, 6.0]);
        let s = take_spans();
        assert_eq!(s.retarget.calls, 3);
        assert_eq!(s.decide.calls, 1);
        assert_eq!(take_spans(), Spans::default());
    }
}
