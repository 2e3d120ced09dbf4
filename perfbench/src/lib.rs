//! The repository benchmark: four closed-loop workloads over the public
//! interfaces of `mimo-sim`, `mimo-core`, `mimo-fleet` and `mimo-exp`.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload for about `s` seconds. With `--trace 0` it reports
//! the end-to-end metrics, with `--trace 1` the per-layer breakdown; the
//! last line of standard output is the JSON result. End-to-end timings are
//! host-normalized ([`calib`]). See `README.md`.

pub mod calib;
pub mod cluster;
pub mod design;
pub mod metrics;
pub mod probe;
pub mod stats;
pub mod suite;

use std::time::{Duration, Instant};

use metrics::{Report, PER_LAYER};

/// The seed the digest and science pins were recorded at — the paper
/// experiments' own base seed.
pub const DEFAULT_SEED: u64 = 2016;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16×16 cluster, proportional policies, 2 shards: retarget-bound.
    ClusterTrack,
    /// 16×16 cluster, uniform policies, 1 shard, faults: plant-bound.
    ClusterHold,
    /// Fresh controller syntheses.
    DesignSweep,
    /// One pass of the paper-figure experiments.
    PaperSuite,
}

impl Workload {
    /// Every workload with its command-line name.
    pub const ALL: [(&'static str, Workload); 4] = [
        ("cluster-track", Workload::ClusterTrack),
        ("cluster-hold", Workload::ClusterHold),
        ("design-sweep", Workload::DesignSweep),
        ("paper-suite", Workload::PaperSuite),
    ];

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is named")
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <cluster-track|cluster-hold|design-sweep|paper-suite> \
[--seed N (default 2016)] [--seconds S (default 10)] [--trace 0|1 (default 0)]";

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Describes the first malformed, unknown, or missing argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
                }
                "--seed" => {
                    let v = value()?;
                    seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {v:?}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("bad --trace {v:?}, expected 0 or 1")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The end of a run's measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    /// A deadline `seconds` from now.
    pub fn after(seconds: u64) -> Self {
        Deadline(Instant::now() + Duration::from_secs(seconds))
    }

    /// Whether the window has closed.
    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// SplitMix64 of `seed` and a stream index: derives per-op inputs from the
/// workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one workload and returns its report.
pub fn run(args: &Args) -> Report {
    let mut report = Report::new();
    report.provenance("workload", args.workload.name());
    report.provenance("seed", args.seed.to_string());
    report.provenance("seconds", args.seconds.to_string());
    report.provenance("trace", u8::from(args.trace).to_string());
    report.provenance("host_cpus", probe::host_cpus().to_string());
    report.provenance("git_revision", probe::git_revision());
    let deadline = Deadline::after(args.seconds);
    let seed = args.seed;
    let r = &mut report;
    match (args.workload, args.trace) {
        (Workload::ClusterTrack, false) => cluster::run(cluster::Shape::Track, seed, &deadline, r),
        (Workload::ClusterHold, false) => cluster::run(cluster::Shape::Hold, seed, &deadline, r),
        (Workload::DesignSweep, false) => design::run(seed, &deadline, r),
        (Workload::PaperSuite, false) => suite::run(seed, &deadline, r),
        (Workload::ClusterTrack, true) => {
            cluster::run_traced(cluster::Shape::Track, seed, &deadline, r)
        }
        (Workload::ClusterHold, true) => {
            cluster::run_traced(cluster::Shape::Hold, seed, &deadline, r)
        }
        (Workload::DesignSweep, true) => design::run_traced(seed, &deadline, r),
        (Workload::PaperSuite, true) => suite::run_traced(seed, &deadline, r),
    }
    if args.trace {
        // A layer the workload never calls did no work.
        for def in PER_LAYER {
            report.set_if_absent(def.name, 0.0);
        }
    } else {
        match probe::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb, 1),
            None => report.fail("peak RSS is not available on this platform".into()),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args(&[
            "--workload",
            "cluster-hold",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ClusterHold,
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
        let d = args(&["--workload", "paper-suite"]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "design-sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "design-sweep", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "design-sweep", "--seed"]).is_err());
        assert!(args(&["--workload", "design-sweep", "--extra"]).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for (name, w) in Workload::ALL {
            assert_eq!(Workload::parse(name), Some(w));
            assert_eq!(w.name(), name);
        }
    }

    #[test]
    fn mix_separates_streams() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
