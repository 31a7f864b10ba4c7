//! Fragment-level fault recovery.
//!
//! LLAP daemons are stateless (§5.1): "failure and recovery is
//! simplified because any node can still be used to process any
//! fragment". This module implements the recovery ladder above the
//! injection points in `hive-dfs` (transient/slow reads) and
//! `hive-llap` (daemon death, cache corruption):
//!
//! 1. **transient-read retry** — a DFS read that fails with
//!    [`HiveError::Transient`] is retried with capped exponential
//!    backoff (`backoff_base_ms · 2^attempt`, capped), charged to
//!    simulated time;
//! 2. **fragment retry** — a failing fragment is re-run on the fleet,
//!    again with backoff, up to `max_fragment_retries` attempts;
//! 3. **node failover** — a daemon dying mid-fragment is removed from
//!    the fleet (blacklisted; its cache share is lost) and the fragment
//!    is re-dispatched onto a surviving daemon;
//! 4. **escalation** — when local retries are exhausted the error
//!    surfaces as [`HiveError::FragmentLost`], which `is_retryable` and
//!    therefore reaches the driver's §4.2 re-optimization retry.
//!
//! With `recovery_enabled = false` the first fault surfaces directly as
//! [`HiveError::Transient`] — the "what would have happened" control
//! for the chaos tests.
//!
//! Because execution here is materializing and deterministic, a retried
//! fragment recomputes byte-identical results; recovery changes only
//! the trace counters ([`NodeTrace::fragment_retries`],
//! [`NodeTrace::failovers`]) and the simulated-time charges.

use crate::engine::{ExecContext, NodeTrace};
use hive_common::{fault::hash_str, HiveError, Result};

/// Retry `op` on [`HiveError::Transient`] with capped exponential
/// backoff, charging waits to the context's per-query accumulator.
/// Exhaustion escalates to [`HiveError::FragmentLost`]; `what` names
/// the operation for that error and is not called otherwise.
pub(crate) fn retry_transient<T>(
    ctx: &ExecContext,
    what: impl Fn() -> String,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let fault = ctx.fs.fault();
    let mut attempt: u32 = 0;
    loop {
        match op() {
            Err(e) if e.is_transient() => {
                if !fault.recovery_enabled() {
                    return Err(e);
                }
                if attempt >= fault.max_fragment_retries() {
                    return Err(HiveError::FragmentLost(format!(
                        "{}: transient error persisted through {attempt} retries: {e}",
                        what()
                    )));
                }
                ctx.charge_retry(fault.backoff_ms(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Apply per-vertex fragment faults to a just-executed operator: daemon
/// death with failover onto the survivors, and plain fragment failure
/// with backoff retries. Mutates `trace` with the recovery charges.
pub(crate) fn apply_fragment_faults(ctx: &ExecContext, trace: &mut NodeTrace) -> Result<()> {
    let fault = ctx.fs.fault();
    if !fault.is_active() {
        return Ok(());
    }
    let frag = hash_str(&trace.label);

    // Daemon death mid-fragment. Only rolled when there is a live fleet
    // with a survivor to fail over to; the fragment's deterministic hash
    // picks which daemon it was running on.
    if ctx.conf.llap_enabled {
        if let Some(llap) = ctx.llap {
            let live = llap.live_nodes();
            if live.len() > 1 {
                let target = live[frag as usize % live.len()];
                if fault.daemon_dies(target, frag) {
                    if !fault.recovery_enabled() {
                        return Err(HiveError::Transient(format!(
                            "LLAP daemon {target} died running fragment '{}'",
                            trace.label
                        )));
                    }
                    // Blacklist the dead daemon (its executors leave the
                    // fleet, its cache share is dropped) and re-dispatch
                    // the fragment onto a survivor — holding a slot there
                    // for the retried work, released even on unwind.
                    llap.kill_daemon(target);
                    let _lease = llap.lease_executors(1);
                    trace.failovers += 1;
                    trace.fragment_retries += 1;
                    trace.backoff_wait_ms += fault.backoff_ms(0);
                }
            }
        }
    }

    // Plain fragment failure: retry with capped exponential backoff.
    // Each `fragment_fails` call draws a fresh deterministic roll (the
    // injector's per-site attempt counter), so the loop replays exactly
    // for a given seed.
    let mut attempt: u32 = 0;
    while fault.fragment_fails(frag) {
        if !fault.recovery_enabled() {
            return Err(HiveError::Transient(format!(
                "fragment '{}' failed (no recovery)",
                trace.label
            )));
        }
        if attempt >= fault.max_fragment_retries() {
            // Local retries exhausted: escalate to the driver's §4.2
            // re-optimization retry.
            return Err(HiveError::FragmentLost(format!(
                "fragment '{}' failed after {attempt} retries",
                trace.label
            )));
        }
        trace.fragment_retries += 1;
        trace.backoff_wait_ms += fault.backoff_ms(attempt);
        attempt += 1;
    }
    Ok(())
}
