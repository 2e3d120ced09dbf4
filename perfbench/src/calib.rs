//! Host-speed normalization of wall-clock timings.
//!
//! The benchmark runs on shared virtual CPUs whose speed drifts twofold
//! and more over minutes. A fixed block of reference work, written here
//! and calling nothing from the measured crates, is timed next to every
//! timed piece of workload; each timing is scaled by the reference work's
//! nominal over its measured speed in the blocks around it. The reported
//! figure is then the time the piece would take on a host that runs a
//! unit of reference work in [`REF_UNIT_S`]. A change to the program moves
//! it; host drift, which slows work and reference alike, mostly cancels
//! (the reference work slows somewhat less than the workloads, so a
//! twofold slowdown still reads as 5–15%).

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Nominal time of one unit of reference work (about its time on the
/// 2-vCPU x86-64 host the benchmark was written on); normalized timings
/// are in seconds of a host that runs a unit in this time.
pub const REF_UNIT_S: f64 = 0.0012;

/// Entries of the reference block's lookup table (32 KiB of `f64`). Small
/// enough to refill in microseconds, so the block's time does not depend
/// on how much of the cache the work before it used.
const TABLE: usize = 1 << 12;

/// Rounds of one unit of reference work.
const ROUNDS: u32 = 12_000;

/// One unit of reference work on the calling thread: small dense matrix
/// products (the controllers' arithmetic) interleaved with data-dependent
/// loads from a table (the plants' lookups).
fn reference_work(table: &[f64]) -> f64 {
    let mut a = [[0.0f64; 6]; 6];
    for (i, row) in a.iter_mut().enumerate() {
        for (j, x) in row.iter_mut().enumerate() {
            *x = 1.0 / (1 + i + j) as f64;
        }
    }
    let mut idx = 1usize;
    let mut acc = 0.0;
    for _ in 0..ROUNDS {
        let mut b = [[0.0f64; 6]; 6];
        for (brow, arow) in b.iter_mut().zip(&a) {
            for (j, x) in brow.iter_mut().enumerate() {
                *x = arow.iter().zip(&a).map(|(p, row)| p * row[j]).sum();
            }
        }
        let norm = b.iter().flatten().map(|x| x.abs()).sum::<f64>();
        for (row, brow) in a.iter_mut().zip(&b) {
            for (x, y) in row.iter_mut().zip(brow) {
                *x = y / norm + 0.01;
            }
        }
        for _ in 0..8 {
            idx = idx.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            acc += table[(idx >> 33) % table.len()] * a[idx % 6][(idx >> 8) % 6];
        }
    }
    acc
}

/// Units of reference work on each side of a piece of work whose time
/// scales it: about 12 ms at [`REF_UNIT_S`], long against a scheduler
/// time slice, short against host drift.
const SIDE_UNITS: u32 = 10;

/// Reference time spent per second of timed work.
const SHARE: f64 = 0.05;

/// One timed block: `units` runs of the reference work on every thread.
#[derive(Debug, Clone, Copy)]
struct Block {
    units: u32,
    secs: f64,
}

/// Times reference blocks on a fixed number of threads at once, matching
/// the parallelism of the work they are set next to.
#[derive(Debug)]
pub struct HostClock {
    threads: usize,
    table: Vec<f64>,
    blocks: Vec<Block>,
}

/// The position of a timed piece of work among a clock's reference
/// blocks: it ran just before block `Tick.0`.
#[derive(Debug, Clone, Copy)]
pub struct Tick(usize);

impl HostClock {
    /// A clock for work that runs on `threads` threads; warms up and
    /// times a first block.
    pub fn new(threads: usize) -> Self {
        let table = (0..TABLE).map(|i| (i % 97) as f64 * 0.01).collect();
        let mut clock = HostClock {
            threads: threads.max(1),
            table,
            blocks: Vec::new(),
        };
        black_box(reference_work(&clock.table));
        clock.block(SIDE_UNITS);
        clock
    }

    /// Times `units` runs of the reference work on every thread at once:
    /// from the moment all threads are running to the moment the last
    /// one finishes, so thread start-up and wake-up are not counted.
    fn block(&mut self, units: u32) {
        let (table, threads) = (&self.table, self.threads);
        let ready = AtomicUsize::new(0);
        let work = || {
            ready.fetch_add(1, Ordering::SeqCst);
            while ready.load(Ordering::SeqCst) < threads {
                std::hint::spin_loop();
            }
            let t0 = Instant::now();
            for _ in 0..units {
                black_box(reference_work(black_box(table)));
            }
            (t0, Instant::now())
        };
        let spans: Vec<(Instant, Instant)> = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
            let mine = work();
            helpers
                .into_iter()
                .map(|h| h.join().expect("reference work does not panic"))
                .chain([mine])
                .collect()
        });
        let start = spans.iter().map(|s| s.0).min().expect("one thread");
        let end = spans.iter().map(|s| s.1).max().expect("one thread");
        self.blocks.push(Block {
            units,
            secs: (end - start).as_secs_f64(),
        });
    }

    /// Times a reference block after a piece of work that took `elapsed_s`
    /// seconds, about [`SHARE`] of its time and at least one unit; the
    /// tick later gives the piece's [`scale`](Self::scale).
    pub fn mark(&mut self, elapsed_s: f64) -> Tick {
        let units = (SHARE * elapsed_s / REF_UNIT_S).round().max(1.0) as u32;
        self.block(units);
        Tick(self.blocks.len() - 1)
    }

    /// The factor that turns the wall time of the piece of work marked by
    /// `tick` into reference time: [`REF_UNIT_S`] per unit over the time
    /// per unit of the nearest blocks on each side of the piece, taken
    /// until each side holds [`SIDE_UNITS`] units (or the run ends). Total
    /// time over total units, not a median, so a block that lost its CPU
    /// to another task counts.
    pub fn scale(&self, tick: Tick) -> f64 {
        fn side<'a>(blocks: impl Iterator<Item = &'a Block>) -> (u32, f64) {
            let (mut units, mut secs) = (0, 0.0);
            for b in blocks {
                if units >= SIDE_UNITS {
                    break;
                }
                units += b.units;
                secs += b.secs;
            }
            (units, secs)
        }
        let (u0, s0) = side(self.blocks[..tick.0].iter().rev());
        let (u1, s1) = side(self.blocks[tick.0..].iter());
        REF_UNIT_S * f64::from(u0 + u1) / (s0 + s1)
    }

    /// Time per unit of reference work of every block so far, seconds.
    pub fn unit_times(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| b.secs / f64::from(b.units))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic_and_finite() {
        let table: Vec<f64> = (0..TABLE).map(|i| (i % 97) as f64 * 0.01).collect();
        let x = reference_work(&table);
        assert!(x.is_finite());
        assert_eq!(x.to_bits(), reference_work(&table).to_bits());
    }

    #[test]
    fn scale_weighs_the_blocks_around_a_piece_by_their_units() {
        let mut clock = HostClock::new(2);
        let tick = clock.mark(0.0);
        let s = clock.scale(tick);
        assert!(s.is_finite() && s > 0.0);
        assert_eq!(clock.unit_times().len(), 2);
        clock.blocks = [(10, 0.01), (1, 0.002), (1, 0.002), (10, 0.04)]
            .into_iter()
            .map(|(units, secs)| Block { units, secs })
            .collect();
        // Tick 1: the 10-unit block before, 12 units after. Tick 3: 12
        // units before, the 10-unit block after. Tick 2: 11 and 11.
        let expect = |units: f64, secs: f64| REF_UNIT_S * units / secs;
        for (tick, want) in [
            (1, expect(22.0, 0.054)),
            (3, expect(22.0, 0.054)),
            (2, expect(22.0, 0.054)),
        ] {
            assert!(
                (clock.scale(Tick(tick)) - want).abs() < 1e-12,
                "tick {tick}"
            );
        }
        // At the end of the run only the blocks before count.
        assert!((clock.scale(Tick(4)) - expect(11.0, 0.044)).abs() < 1e-12);
    }
}
