//! The traced run: per-layer metrics of one workload, and the span file.

use e2e_bench::{cli, hygiene, layers};

fn main() {
    hygiene::strip_hive_env();
    hygiene::refuse_debug_build();
    let cli = cli::parse();
    match layers::run(&cli.run, cli.trace_file.as_deref()) {
        Ok(report) => cli::finish(&cli, &report, true),
        Err(e) => {
            eprintln!("{}: {e}", cli.run.workload.name());
            std::process::exit(1);
        }
    }
}
