//! Command line shared by the two binaries:
//! `--workload W [--seed N] [--seconds S] [--trace 0|1] [--bless DIR]
//!  [--stamp-file PATH] [--trace-file PATH]`.

use crate::harness::RunConfig;
use crate::report::Report;
use crate::workload::Workload;
use std::io::Write as _;
use std::path::PathBuf;

pub struct Cli {
    pub run: RunConfig,
    /// Append the stamped result record to this file (`run.sh` collects
    /// the records into `result.json`).
    pub stamp_file: Option<PathBuf>,
    /// Where the traced run writes its spans.
    pub trace_file: Option<PathBuf>,
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--bless DIR] \
         [--stamp-file PATH] [--trace-file PATH]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

/// Parse the process arguments; exits with a usage message on anything
/// unknown or malformed.
pub fn parse() -> Cli {
    let mut workload = None;
    let mut run = RunConfig::new(Workload::TpcdsWarm);
    let (mut stamp_file, mut trace_file) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload =
                    Some(Workload::parse(&v).unwrap_or_else(|| usage(&format!("no workload {v}"))));
            }
            "--seed" => run.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => run.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds")),
            // Which binary runs is run.sh's decision; accepted so that the
            // full driver command line can be passed through.
            "--trace" => {
                value();
            }
            "--bless" => run.bless = Some(PathBuf::from(value())),
            "--stamp-file" => stamp_file = Some(PathBuf::from(value())),
            "--trace-file" => trace_file = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    run.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Cli {
        run,
        stamp_file,
        trace_file,
    }
}

/// Print a finished run — the readable lines, then the one-line JSON
/// object last — and exit non-zero if any operation was wrong.
pub fn finish(cli: &Cli, report: &Report, trace: bool) -> ! {
    if let Some(path) = &cli.stamp_file {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.stamped_json_line(trace)));
        if let Err(e) = appended {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    print!("{}", report.human());
    println!("{}", report.json_line());
    std::process::exit(if report.correct { 0 } else { 1 });
}
