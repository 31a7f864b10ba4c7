//! The untraced run: end-to-end metrics of one workload.

use e2e_bench::{cli, harness, hygiene};

fn main() {
    hygiene::strip_hive_env();
    hygiene::refuse_debug_build();
    let cli = cli::parse();
    match harness::run(&cli.run) {
        Ok(report) => cli::finish(&cli, &report, false),
        Err(e) => {
            eprintln!("{}: {e}", cli.run.workload.name());
            std::process::exit(1);
        }
    }
}
