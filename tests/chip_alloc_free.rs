//! Proof that a whole chip epoch performs zero heap allocations once
//! warmed up, with every core's target moving every epoch.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The chip
//! is the deployed shape: 16 cores under the proportional arbiter (which
//! hands every core a fresh `[IPS, power]` reference each epoch, so every
//! governor re-solves its steady state), with shared-LLC contention. It is
//! built both ways a chip can be: banked (`Chip::build_banked`, the
//! structure-of-arrays `GovernorBank`) and per-cell (`Chip::build` with a
//! `fast_governor` factory, one boxed static controller per core).
//!
//! Everything runs from ONE `#[test]` function: the counter is
//! process-global, so concurrent tests in the same binary would pollute
//! the measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mimo_arch::core::governor::fast_governor;
use mimo_arch::exp::setup;
use mimo_arch::fleet::{ArbitrationPolicy, Chip, FleetConfig};
use mimo_arch::sim::llc::LlcConfig;
use mimo_arch::sim::InputSet;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Asserts `window` performs zero allocations. The counter is
/// process-global and the libtest harness occasionally allocates on its
/// own threads mid-window, so a non-zero count is retried: a hot path
/// that truly allocates does so on every attempt, while harness noise
/// (rare to begin with) vanishes across three independent windows.
fn assert_alloc_free(label: &str, mut window: impl FnMut()) {
    let mut deltas = Vec::new();
    for _ in 0..3 {
        let before = allocations();
        window();
        let delta = allocations() - before;
        if delta == 0 {
            return;
        }
        deltas.push(delta);
    }
    panic!("{label} allocated on every attempt: {deltas:?}");
}

const CORES: usize = 16;

fn contended_chip() -> FleetConfig {
    FleetConfig::new(CORES)
        .epochs(200)
        .policy(ArbitrationPolicy::Proportional)
        .seed(5)
        .llc_contention(LlcConfig::for_cores(CORES).total_ways(4 * CORES))
}

#[test]
fn chip_epoch_with_moving_targets_is_allocation_free() {
    let ctrl = setup::design_mimo(InputSet::FreqCache, 2)
        .expect("design")
        .controller;
    let banked = Chip::build_banked(0, contended_chip(), &ctrl).expect("banked chip");
    let per_cell = Chip::build(0, contended_chip(), &mut |_, _| fast_governor(ctrl.clone()))
        .expect("per-cell chip");
    for (label, mut chip) in [("banked chip", banked), ("per-cell chip", per_cell)] {
        // Warm-up: the plants' phase state and the first retargets settle.
        for _ in 0..20 {
            chip.step_epoch();
        }
        assert_alloc_free(label, || {
            for _ in 0..20 {
                chip.step_epoch();
            }
        });
        let (stats, _) = chip.into_results();
        assert_eq!(stats.quarantined_cores, 0, "{label}: no core may fault");
    }
}
