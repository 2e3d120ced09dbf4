//! Command-line entry point of the benchmark; see the library docs.

use std::process::ExitCode;

use perfbench::probe::CountingAlloc;
use perfbench::{run, Args, USAGE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    eprint!("{}", report.human());
    match report.result_line(args.trace) {
        Ok(line) => {
            println!("{}", report.provenance_json());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: no result: {e}");
            ExitCode::FAILURE
        }
    }
}
