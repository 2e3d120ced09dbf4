//! `mimo-exp` — the unified experiment CLI over declarative scenario specs.
//!
//! The primary entry point is `run <spec.toml>`: every experiment the
//! harness can perform is described by a checked-in spec under `specs/`,
//! and the per-figure subcommands (`fig06`, …) are thin aliases resolving
//! to compile-time copies of those same files — one code path, one config
//! surface, byte-identical CSVs either way.
//!
//! ```text
//! mimo-exp run <spec.toml> [FLAGS]     execute a scenario spec
//! mimo-exp validate <path>...          check specs without running them
//! mimo-exp schema                      print the spec key reference
//! mimo-exp [SUBCOMMAND] [FLAGS]        alias / suite
//! ```
//!
//! With no subcommand the full suite runs. Grid cells fan out across
//! `--jobs` workers; output is bit-identical at any job count, so
//! `--jobs` only changes wall-clock.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mimo_exp::experiments::ExpConfig;
use mimo_exp::par;
use mimo_exp::report::ResultsDir;
use mimo_exp::spec::{self, PaperExperiment, RunOverrides, RunSpec, Scenario};

const USAGE: &str = "\
mimo-exp — reproduce the paper's evaluation from declarative scenario specs

USAGE:
    mimo-exp run <spec.toml> [FLAGS]     execute a scenario spec
    mimo-exp validate <path>...          check spec files (or directories)
    mimo-exp schema                      print the spec key reference
    mimo-exp [SUBCOMMAND] [FLAGS]

SUBCOMMANDS:
    all          run the complete suite (default)
    fig06        Figure 6 / Table V: weight-choice sensitivity
    fig07        Figure 7: model error vs state dimension
    fig08        Figure 8: convergence under uncertainty guardbands
    fig09        Figure 9: E×D minimization, 2 inputs
    fig10        Figure 10: E×D minimization, 3 inputs
    fig11        Figure 11: tracking-error scatter
    fig12        Figure 12: time-varying (QoE/battery) tracking
    tab-opt      §VIII-F text: E and E×D² reductions
    fleet-scale  one-chip clusters of N ∈ {1,4,16,64} cores under the chip budget
    cluster-scale  chips × cores-per-chip under one datacenter budget,
                 sharded chip-parallel with shared-LLC contention
    fault-sweep  fault rate × arbitration policy on a 16-core chip
    phase-step   spec-only scenario: stepped power/QoE reference schedule
    cluster-fault  spec-only scenario: mid-run chip fault on a cluster
    cluster-bank  spec-only scenario: banked cluster with a mid-run bank
                 eviction, pinned to the per-cell digest

    Every subcommand but `all` is an alias for `run` on the embedded copy
    of the matching specs/<name>.toml file.

FLAGS:
    --epochs N    epochs per tracking run (default: each spec's own count;
                  paper-scale 4000 for the figure aliases)
    --jobs N      worker threads for experiment grid cells (default: the
                  host's available parallelism, or the MIMO_JOBS env var;
                  N >= 1 — results are bit-identical at any job count)
    --out DIR     directory CSVs land in (default: nearest results/)
    --shards N    cluster specs and cluster-scale only: pin the shard
                  count; the CSV is byte-identical at any value (CI diffs
                  them)
    --trace PATH  fault-sweep only: write a JSONL epoch trace of the
                  sweep's most eventful run (per-core ring-buffer sinks)
    -h, --help    print this help
";

struct Cli {
    command: String,
    /// Positional arguments after the subcommand (`run` takes one spec
    /// path, `validate` one or more).
    paths: Vec<String>,
    epochs: Option<usize>,
    jobs: Option<usize>,
    out: Option<String>,
    shards: Option<usize>,
    trace: Option<String>,
}

const TRACE_MISUSE: &str = "--trace is only meaningful with fault-sweep (or run on its spec)";
const SHARDS_MISUSE: &str =
    "--shards is only meaningful with cluster specs (cluster-scale, cluster-fault, cluster-bank, \
     or run on one of their specs)";

/// Subcommands that resolve to an embedded spec, i.e. everything except
/// `run`/`validate`/`schema`/`all`.
fn is_alias(cmd: &str) -> bool {
    spec::embedded::by_alias(cmd).is_some()
}

/// Parses a flag value that must be a positive integer.
fn positive(flag: &str, v: Option<&String>) -> Result<usize, String> {
    let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse::<usize>() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("{flag} needs a positive integer, got {v:?}")),
    }
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::from("all"),
        paths: Vec::new(),
        epochs: None,
        jobs: None,
        out: None,
        shards: None,
        trace: None,
    };
    let mut saw_command = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--epochs" => cli.epochs = Some(positive("--epochs", it.next())?),
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.jobs = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?,
                );
            }
            "--out" => {
                cli.out = Some(it.next().ok_or("--out needs a directory")?.clone());
            }
            "--shards" => cli.shards = Some(positive("--shards", it.next())?),
            "--trace" => {
                cli.trace = Some(it.next().ok_or("--trace needs a path")?.clone());
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            cmd if !saw_command => {
                saw_command = true;
                cli.command = cmd.to_string();
            }
            path if matches!(cli.command.as_str(), "run" | "validate") => {
                cli.paths.push(path.to_string());
            }
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let known = ["all", "run", "validate", "schema"];
    if !known.contains(&cli.command.as_str()) && !is_alias(&cli.command) {
        return Err(format!("unknown subcommand {:?}", cli.command));
    }
    match cli.command.as_str() {
        "run" if cli.paths.len() != 1 => {
            return Err("run takes exactly one spec path".into());
        }
        "validate" if cli.paths.is_empty() => {
            return Err("validate takes at least one spec file or directory".into());
        }
        _ => {}
    }
    // Whether a single-spec command uses the flags is checked once its
    // spec is loaded (`check_flags`); every other command never does.
    if cli.command != "run" && !is_alias(&cli.command) {
        if cli.trace.is_some() {
            return Err(TRACE_MISUSE.into());
        }
        if cli.shards.is_some() {
            return Err(SHARDS_MISUSE.into());
        }
    }
    Ok(cli)
}

/// Rejects `--trace` and `--shards` on a spec whose run would ignore them.
/// This lives in the CLI, not in `run_spec`, because invariance re-runs
/// set the shard override on any paper spec.
fn check_flags(s: &RunSpec, ov: &RunOverrides) -> Result<(), String> {
    let traceable = matches!(s.scenario, Scenario::Paper(PaperExperiment::FaultSweep));
    if ov.trace.is_some() && !traceable {
        return Err(format!("{TRACE_MISUSE}, not spec {:?}", s.name));
    }
    let shardable = matches!(
        s.scenario,
        Scenario::Cluster(_) | Scenario::Paper(PaperExperiment::ClusterScale)
    );
    if ov.shards.is_some() && !shardable {
        return Err(format!("{SHARDS_MISUSE}, not spec {:?}", s.name));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    // Spec-introspection subcommands need no runtime config.
    match cli.command.as_str() {
        "schema" => {
            print!("{}", spec::SCHEMA_TEXT);
            return ExitCode::SUCCESS;
        }
        "validate" => return run_validate(&cli.paths),
        _ => {}
    }

    let jobs = match par::resolve_jobs(cli.jobs) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = ExpConfig::full();
    cfg.jobs = jobs;
    cfg.results = match &cli.out {
        Some(dir) => ResultsDir::new(dir.clone()),
        None => ResultsDir::discover(),
    };
    if let Some(n) = cli.epochs {
        cfg.tracking_epochs = n;
    }
    let overrides = RunOverrides {
        epochs: cli.epochs,
        shards: cli.shards,
        trace: cli.trace.clone(),
    };

    let failures = match cli.command.as_str() {
        "all" => run_all(&cfg, cli.epochs),
        cmd => {
            let loaded = if cmd == "run" {
                spec::load(Path::new(&cli.paths[0]))
            } else {
                embedded_spec(cmd)
            };
            let s = match loaded {
                Ok(s) => s,
                Err(msg) => {
                    eprintln!("error: {cmd} failed: {msg}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(msg) = check_flags(&s, &overrides) {
                eprintln!("error: {msg}\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
            let name = if cmd == "run" { s.name.as_str() } else { cmd };
            collect_failure(name, spec::run_spec(&cfg, &s, &overrides))
        }
    };

    let (hits, misses) = cfg.cache.stats();
    if hits + misses > 0 {
        println!("design cache: {hits} hits, {misses} misses");
    }

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (name, msg) in &failures {
            eprintln!("error: {name} failed: {msg}");
        }
        ExitCode::FAILURE
    }
}

/// Resolves a subcommand alias to its embedded spec. The embedded copies
/// are pinned byte-identical to the `specs/` files by test, so running it
/// is exactly `mimo-exp run specs/<name>.toml`.
fn embedded_spec(alias: &str) -> Result<RunSpec, String> {
    let embedded = spec::embedded::by_alias(alias)
        .ok_or_else(|| format!("no embedded spec for alias {alias:?}"))?;
    spec::parse_str(embedded.text)
        .map_err(|e| format!("embedded {} is invalid: {e}", embedded.path))
}

/// `mimo-exp validate <path>...`: parses, validates, and lowers every
/// named spec (recursing one level into directories for `*.toml`) without
/// running anything. Prints one line per spec; any failure exits non-zero.
fn run_validate(paths: &[String]) -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut in_dir: Vec<PathBuf> = match std::fs::read_dir(path) {
                Ok(entries) => entries
                    .filter_map(Result::ok)
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "toml"))
                    .collect(),
                Err(e) => {
                    eprintln!("error: {}: cannot read directory: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if in_dir.is_empty() {
                eprintln!("error: {}: no .toml specs found", path.display());
                return ExitCode::FAILURE;
            }
            in_dir.sort();
            files.extend(in_dir);
        } else {
            files.push(path.to_path_buf());
        }
    }
    let mut ok = true;
    for file in &files {
        let outcome = spec::load(file).and_then(|s| {
            spec::check(&s)
                .map(|()| s)
                .map_err(|e| spec::format_error(file, &e))
        });
        match outcome {
            Ok(s) => println!("{}: ok ({} {})", file.display(), s.scenario.kind(), s.name),
            Err(msg) => {
                ok = false;
                eprintln!("error: {msg}");
            }
        }
    }
    if ok {
        println!("{} spec(s) valid", files.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn collect_failure(name: &str, r: Result<(), String>) -> Vec<(String, String)> {
    match r {
        Ok(()) => Vec::new(),
        Err(msg) => vec![(name.to_string(), msg)],
    }
}

/// The complete evaluation suite: every embedded spec, in
/// [`EMBEDDED`](spec::embedded::EMBEDDED) order (the paper figures, then
/// the spec-only scenarios). A failing step is reported and the rest of
/// the suite still runs, so one bad cell costs one figure, not the whole
/// evaluation.
fn run_all(cfg: &ExpConfig, epochs: Option<usize>) -> Vec<(String, String)> {
    let mut failures = Vec::new();
    let ov = RunOverrides {
        epochs,
        shards: None,
        trace: None,
    };
    for embedded in &spec::embedded::EMBEDDED {
        let name = embedded.alias;
        println!("### {name} ({})", embedded.path);
        if let Err(msg) = embedded_spec(name).and_then(|s| spec::run_spec(cfg, &s, &ov)) {
            eprintln!("error: {name} failed: {msg} (continuing)");
            failures.push((name.to_string(), msg));
        }
    }
    println!("done; CSVs in {}", cfg.results.path().display());
    failures
}
