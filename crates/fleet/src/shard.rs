//! Chip sharding: whole chips on pool workers, rendezvous only at
//! exchange windows.
//!
//! Shards are the runtime's only parallelism: a chip's own beat
//! ([`Chip::step_epoch`]) is a few microseconds of serial work, too short
//! to hand to threads, so the unit dealt to a thread is a whole chip. The
//! shards synchronize only every
//! [`exchange_period`](crate::ClusterConfig::exchange_period) chip epochs.
//! Each window is one batch on the shared persistent
//! [`WorkerPool`](crate::pool): every shard owns a contiguous run of chips
//! and steps each of them through the whole window back to back — the hot
//! loop takes no locks beyond the uncontended per-shard mutex. Between
//! batches the submitting thread gathers the chips' published
//! [`ChipSummary`](crate::ChipSummary) snapshots in chip order, asks the
//! [`ClusterArbiter`](crate::ClusterArbiter) for fresh per-chip caps, and
//! installs them. The reduction always runs on one thread in chip order —
//! which is what keeps [`ClusterStats`](crate::ClusterStats) bit-identical
//! at any shard count.

use std::sync::Mutex;
use std::time::Instant;

use crate::arbiter::ClusterArbiter;
use crate::chip::Chip;
use crate::stats::ChipSummary;

/// What the sharded run hands back to the cluster runner.
pub(crate) struct ShardOutcome {
    /// Budget exchanges performed (windows minus the final one).
    pub exchanges: u64,
    /// Exchanges that moved at least one chip cap bitwise.
    pub rebudget_moves: u64,
    /// Largest window-mean cluster power observed at any window boundary,
    /// watts (chip-order sum of per-chip window means).
    pub peak_window_power_w: f64,
}

/// Runs `chips` for `epochs` chip epochs, sharded `shards` ways, with a
/// budget exchange every `period` epochs. Chips are dealt to shards in
/// contiguous chunks; the caller passes `shards >= 1` and
/// `chips.len() >= 1`.
pub(crate) fn run_sharded(
    chips: &mut [Chip],
    arbiter: &mut ClusterArbiter,
    epochs: usize,
    period: usize,
    shards: usize,
) -> ShardOutcome {
    let n_chips = chips.len();
    // Divide the cap once before epoch 0 so every chip starts under a
    // cluster-granted budget (for a lone chip this is exactly the nominal
    // single-chip cap — bit-for-bit).
    let caps = arbiter.bootstrap();
    for chip in chips.iter_mut() {
        chip.set_power_cap(caps[chip.index()]);
    }
    // Window plan: full `period`-epoch windows plus a possibly-shorter
    // tail. Derived from config only, so it cannot depend on timing.
    let n_windows = epochs
        .div_ceil(period.max(1))
        .max(if epochs == 0 { 0 } else { 1 });
    if n_windows == 0 {
        return ShardOutcome {
            exchanges: 0,
            rebudget_moves: 0,
            peak_window_power_w: 0.0,
        };
    }

    // Contiguous deal: ceil(n/shards) chips per shard, so chip order is
    // preserved within and across shards.
    let chunk = n_chips.div_ceil(shards);
    let shard_chips: Vec<Mutex<&mut [Chip]>> = chips.chunks_mut(chunk).map(Mutex::new).collect();
    let pool = crate::pool::global();
    let mut peak_window_power_w = 0.0f64;
    let mut summaries: Vec<ChipSummary> = Vec::with_capacity(n_chips);
    for window in 0..n_windows {
        let win_epochs = (epochs - window * period).min(period);
        // One pool batch per window: each shard steps its chips through
        // the whole window back to back.
        pool.run_bounded(shard_chips.len(), shards, &|si| {
            let mut shard = shard_chips[si].lock().expect("shard mutex poisoned");
            for chip in shard.iter_mut() {
                // Per-chip wall clock covers stepping only; the gather
                // below is the cluster's overhead.
                let t0 = Instant::now();
                for _ in 0..win_epochs {
                    chip.step_epoch();
                }
                chip.add_wall(t0.elapsed().as_secs_f64());
            }
        });
        // Exchange on the submitting thread: gather summaries in chip
        // order (shards hold contiguous runs, so shard-major iteration is
        // chip order) and reduce.
        summaries.clear();
        for shard in &shard_chips {
            let mut shard = shard.lock().expect("shard mutex poisoned");
            for chip in shard.iter_mut() {
                summaries.push(chip.publish());
            }
        }
        // Chip-order reduction: the window's cluster power is the sum of
        // per-chip window means.
        let window_power: f64 = summaries.iter().map(|s| s.avg_power_w).sum();
        if window_power > peak_window_power_w {
            peak_window_power_w = window_power;
        }
        // Install the fresh caps before the next window.
        if window + 1 < n_windows {
            let caps = arbiter.rebudget(&summaries);
            for shard in &shard_chips {
                let mut shard = shard.lock().expect("shard mutex poisoned");
                for chip in shard.iter_mut() {
                    chip.set_power_cap(caps[chip.index()]);
                }
            }
        }
    }

    ShardOutcome {
        exchanges: arbiter.exchanges(),
        rebudget_moves: arbiter.rebudget_moves(),
        peak_window_power_w,
    }
}
