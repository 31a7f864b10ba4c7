//! Run hygiene: what must hold of the process before a number it prints
//! can be compared with another run's.

/// Remove every `HIVE_*` environment override. `HiveConf`'s
/// `effective_*` resolvers let the environment win over the conf, so a
/// stray `HIVE_PIR_ENABLED=0` from a sweep would silently benchmark a
/// different engine. Call first thing in `main`, before any thread
/// exists.
pub fn strip_hive_env() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HIVE_"))
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
}

/// Exit unless this is an optimized build: debug numbers are 10–30×
/// off and must never land in a result file.
pub fn refuse_debug_build() {
    if cfg!(debug_assertions) {
        eprintln!("refusing to benchmark a debug build; use --release (bench/e2e/run.sh does)");
        std::process::exit(2);
    }
}

/// Cores the intra-query parallelism (`parallel_threads = 0` → auto)
/// resolves to on this host.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; 0 where
/// `/proc` is not available.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
