//! Morsel-style parallel execution primitives.
//!
//! The paper's LLAP layer (§5) runs query fragments on a fleet of
//! *persistent* executors so that a fragment pays no start-up. This
//! module is the host-side analogue: [`parallel_map`] fans morsels out
//! over a process-wide set of parked helper threads — nothing is spawned
//! or joined per call (DESIGN.md §5 "Executors are persistent").
//!
//! **Ticket protocol.** A call of width `workers` posts `workers − 1`
//! *tickets* — each the right for one helper to run the call's claim
//! loop — wakes that many idle helpers, and runs the same claim loop on
//! the calling thread. When its own loop ends (every item is claimed) it
//! *withdraws* the tickets nobody took and waits only for helpers that
//! took one. The caller never waits for a helper to become free, so a
//! nested call (a scan worker's inner key evaluation) or a hundred
//! concurrent sessions cannot deadlock or starve: with no idle helper a
//! call is the serial loop on its own thread. The pool is never sized by
//! configuration: it grows, lazily, to the widest width any call asked
//! for, and idle helpers sleep on a condition variable.
//!
//! Three properties matter more than raw speed:
//!
//! * **Determinism** — results are collected by item index and errors
//!   are surfaced in item order, so the outcome (including *which*
//!   error wins) is byte-identical to the serial loop for any worker
//!   count or interleaving. Workers never exit early on error: every
//!   item is processed exactly once per call, which keeps the
//!   fault-injection attempt counters on a fixed schedule (see
//!   `FaultInjector`) and lets `HIVE_FAULT_SEED` replays reproduce
//!   simulated time bit-for-bit.
//! * **Panic safety** — a panicking item is caught and surfaced as a
//!   typed [`HiveError::Execution`], not a hung query, a dead helper or
//!   a poisoned lock.
//! * **Lease gating** — callers size `workers` with
//!   [`crate::engine::ExecContext::lease_workers`], which draws on live
//!   LLAP executor leases so host threads and the simulated fleet's
//!   admission accounting stay in agreement. The pool decides only
//!   *which* thread runs a claim loop, never how many may.

use hive_common::{HiveError, Result};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Rows per morsel for operators that parallelize over row ranges
/// (aggregate build, join build/probe). Inputs smaller than one morsel
/// run serially — waking a helper would cost more than it saves.
pub(crate) const ROWS_PER_MORSEL: usize = 4096;

/// How many row-range morsels an input of `rows` splits into (the work
/// item count handed to `ExecContext::lease_workers`).
pub(crate) fn row_morsels(rows: usize) -> usize {
    rows.div_ceil(ROWS_PER_MORSEL)
}

/// A claim loop as the pool holds it: the address of a closure on the
/// posting caller's stack, and the function that calls a closure of that
/// type there. Raw on purpose: it dangles once the call's [`Posted`] has
/// been dropped, so no safe code can follow it — only [`helper`] does,
/// inside the window its `SAFETY` argument covers.
#[derive(Clone, Copy)]
struct Work {
    at: *const (),
    call: unsafe fn(*const ()),
}

// SAFETY: what `at` points to is `Sync` ([`post`] demands it), so it may
// be called from any thread; sending the address takes no more than that.
// *When* it may be called is `helper`'s argument, not this one's.
unsafe impl Send for Work {}

/// Calls the `F` at `at`.
///
/// # Safety
/// `at` points to an `F` that stays live until this returns.
unsafe fn call_at<F: Fn() + Sync>(at: *const ()) {
    (*at.cast::<F>())()
}

/// What outlives one in-flight call on the heap, so that a helper's last
/// touch of the call is never of the caller's stack.
struct Call {
    /// Helpers that took a ticket and have not yet left the claim loop.
    /// Incremented under the pool lock (so the caller's withdrawal,
    /// which takes that lock, has seen every helper that started);
    /// decremented by the helper as the last thing it does for the call.
    running: AtomicUsize,
    /// The calling thread, parked in [`Posted::drop`] while `running > 0`.
    caller: std::thread::Thread,
}

/// The unclaimed tickets of one call.
struct Tickets {
    work: Work,
    call: Arc<Call>,
    left: usize,
}

struct PoolState {
    /// Calls with tickets left, oldest first.
    queue: VecDeque<Tickets>,
    /// Helper threads started so far; they are never stopped.
    helpers: usize,
    /// Helpers asleep on [`Pool::wake`].
    idle: usize,
}

/// The process-wide persistent executors.
struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        queue: VecDeque::new(),
        helpers: 0,
        idle: 0,
    }),
    wake: Condvar::new(),
};

/// A helper's whole life: take a ticket, run that call's claim loop,
/// report, look again; sleep when there is none. Helpers are detached —
/// they hold nothing at rest, so the process exits under them.
fn helper() {
    /// Reports a helper out of a call on every path, unwinding included.
    struct Leave(Arc<Call>);
    impl Drop for Leave {
        fn drop(&mut self) {
            if self.0.running.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.0.caller.unpark();
            }
        }
    }
    let mut pool = POOL.state.lock();
    loop {
        let Some(front) = pool.queue.front_mut() else {
            pool.idle += 1;
            POOL.wake.wait(&mut pool);
            pool.idle -= 1;
            continue;
        };
        front.left -= 1;
        let (work, call) = (front.work, Arc::clone(&front.call));
        call.running.fetch_add(1, Ordering::SeqCst);
        if front.left == 0 {
            pool.queue.pop_front();
        }
        drop(pool);
        {
            let _leave = Leave(call);
            // SAFETY: the closure at `work.at` is borrowed for the `'a` of
            // the `Posted<'a>` that posted it, and is live here because
            // that guard has not finished dropping. This helper copied
            // `work` while holding the pool lock with the call's `Tickets`
            // still queued and bumped `call.running` under that same
            // lock; `Posted::drop` — which runs before `'a` ends, since
            // `Posted` is private and never leaked — first removes the
            // `Tickets` under the pool lock, after which no helper can
            // copy `work` and every helper that did is counted in
            // `running`, then blocks until `running` is zero; and
            // `running` is decremented (`_leave`, on unwinding too)
            // strictly after this call returns, the helper's last use of
            // `work`. `F` is the type `post` took the address of.
            //
            // The claim loop catches per item; `catch_unwind` here keeps
            // the helper alive should the loop itself ever unwind.
            let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (work.call)(work.at) }));
        }
        pool = POOL.state.lock();
    }
}

/// Tickets in the pool for a claim loop borrowed for `'a`. Dropping it
/// ends every helper's use of the loop; it is never leaked (private,
/// and [`parallel_map`] keeps it on its stack).
struct Posted<'a> {
    call: Arc<Call>,
    _work: PhantomData<&'a ()>,
}

/// Offer `work` to up to `tickets` helpers, growing the pool to that
/// many on first need. Returns at once; helpers may start calling
/// `work` any time from now until the returned guard has been dropped.
fn post<'a, F: Fn() + Sync + 'a>(work: &'a F, tickets: usize) -> Posted<'a> {
    let call = Arc::new(Call {
        running: AtomicUsize::new(0),
        caller: std::thread::current(),
    });
    // The lifetime is erased here, safely — a raw address promises
    // nothing. What lets a helper follow it is argued where one does.
    let work = Work {
        at: std::ptr::from_ref(work).cast(),
        call: call_at::<F>,
    };
    let mut pool = POOL.state.lock();
    while pool.helpers < tickets {
        let spawned = std::thread::Builder::new()
            .name("hive-exec-helper".into())
            .spawn(helper);
        if spawned.is_err() {
            // The host refuses more threads: run with the helpers there
            // are (with none, the call is the caller's serial loop).
            break;
        }
        pool.helpers += 1;
    }
    let wake = tickets.min(pool.idle);
    pool.queue.push_back(Tickets {
        work,
        call: Arc::clone(&call),
        left: tickets,
    });
    drop(pool);
    for _ in 0..wake {
        POOL.wake.notify_one();
    }
    Posted {
        call,
        _work: PhantomData,
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        // Withdraw the tickets nobody took ...
        let mut pool = POOL.state.lock();
        if let Some(at) = pool
            .queue
            .iter()
            .position(|t| Arc::ptr_eq(&t.call, &self.call))
        {
            pool.queue.remove(at);
        }
        drop(pool);
        // ... and wait for the helpers that took one. They are running
        // this call's items right now, so this never waits on a queue.
        while self.call.running.load(Ordering::SeqCst) != 0 {
            std::thread::park();
        }
    }
}

/// Run `f(0..items)` on up to `workers` threads — the caller and up to
/// `workers − 1` pool helpers — and return the results in item order.
/// Items are claimed from a shared atomic counter (morsel dispatch), so
/// the threads self-balance regardless of per-item cost skew, and a call
/// no helper turns up for is simply the caller running every item.
///
/// With `workers <= 1` (or fewer than two items) this degenerates to
/// the plain serial loop — the `threads=1` fallback path — except that
/// the serial loop *does* stop at the first error (nothing after it
/// has run yet, so determinism is trivially preserved).
pub fn parallel_map<T, F>(workers: usize, items: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if workers <= 1 || items <= 1 {
        return (0..items).map(&f).collect();
    }
    let workers = workers.min(items);
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..items).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let claim_loop = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items {
            return;
        }
        // Catch panics per item: a poisoned item must surface as an
        // error on its index, not tear down the query or leave siblings
        // unprocessed (the remaining items still run, keeping the
        // fault-roll schedule deterministic).
        let r = catch_unwind(AssertUnwindSafe(|| f(i))).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker thread panicked".to_string());
            Err(HiveError::Execution(format!(
                "parallel worker panicked: {msg}"
            )))
        });
        *slots[i].lock() = Some(r);
    };
    {
        let _posted = post(&claim_loop, workers - 1);
        claim_loop();
    }
    // Collect in item order; the lowest-index error wins, exactly as it
    // would in the serial loop.
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().unwrap_or_else(|| {
                // invariant: the dispatch counter hands out every index
                // below `items` exactly once and the caller's own loop
                // ends only when all are claimed, while `Posted::drop`
                // waits for every helper still filling one; surface a
                // typed error anyway rather than trusting that across
                // edits.
                Err(HiveError::Execution(
                    "parallel worker lost its result".into(),
                ))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_any_worker_count() {
        let f = |i: usize| -> Result<usize> { Ok(i * i) };
        let serial = parallel_map(1, 37, f).unwrap();
        for workers in [2, 3, 8, 64] {
            assert_eq!(parallel_map(workers, 37, f).unwrap(), serial);
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        let f = |i: usize| -> Result<usize> {
            if i % 3 == 2 {
                Err(HiveError::Execution(format!("boom {i}")))
            } else {
                Ok(i)
            }
        };
        for workers in [1, 2, 8] {
            let err = parallel_map(workers, 20, f).unwrap_err();
            assert_eq!(
                err.to_string(),
                HiveError::Execution("boom 2".into()).to_string()
            );
        }
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        let f = |i: usize| -> Result<usize> {
            if i == 5 {
                panic!("deliberate test panic");
            }
            Ok(i)
        };
        let err = parallel_map(4, 10, f).unwrap_err();
        match err {
            HiveError::Execution(msg) => assert!(msg.contains("deliberate test panic"), "{msg}"),
            other => panic!("expected Execution error, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_single_item() {
        assert!(parallel_map(8, 0, Ok).unwrap().is_empty());
        assert_eq!(parallel_map(8, 1, Ok).unwrap(), vec![0]);
    }

    // ---- the pool ------------------------------------------------------
    //
    // The test harness runs these on parallel threads against the one
    // process-wide pool, so each also runs under whatever the others
    // are doing to it — which is the situation they are about.

    /// The widest width any test in this module asks for: what the pool
    /// may grow to, at most, while they run.
    const WIDEST: usize = 64;

    #[test]
    fn nested_three_deep_wider_than_the_host() {
        let sum_to = |n: usize| n * (n + 1) / 2;
        let out = parallel_map(WIDEST, 6, |a| {
            let mids = parallel_map(WIDEST, 5, |b| {
                let leaves = parallel_map(WIDEST, 7, |c| Ok(a * 100 + b * 10 + c))?;
                Ok(leaves.into_iter().sum::<usize>())
            })?;
            Ok(mids.into_iter().sum::<usize>())
        })
        .unwrap();
        let expect: Vec<usize> = (0..6)
            .map(|a| 35 * a * 100 + 7 * sum_to(4) * 10 + 5 * sum_to(6))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn many_clients_mixed_widths_equal_the_serial_loop() {
        std::thread::scope(|s| {
            for client in 0..8usize {
                s.spawn(move || {
                    for call in 0..2000usize {
                        let workers = [1, 2, 3, 5, 8, 16][(client + call) % 6];
                        let items = 1 + (client * 7 + call) % 23;
                        let f = |i: usize| -> Result<usize> { Ok(i * call + client) };
                        let serial: Vec<usize> = (0..items).map(|i| i * call + client).collect();
                        assert_eq!(parallel_map(workers, items, f).unwrap(), serial);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panic_and_an_error_in_one_call_lowest_index_wins_and_all_siblings_ran() {
        for (panic_at, err_at, wins) in [(3, 11, "three"), (11, 3, "boom 3")] {
            let ran = AtomicUsize::new(0);
            let f = |i: usize| -> Result<usize> {
                ran.fetch_add(1, Ordering::SeqCst);
                if i == panic_at {
                    panic!("three");
                }
                if i == err_at {
                    return Err(HiveError::Execution(format!("boom {i}")));
                }
                Ok(i)
            };
            let err = parallel_map(4, 20, f).unwrap_err();
            assert!(err.to_string().contains(wins), "{err}");
            assert_eq!(
                ran.load(Ordering::SeqCst),
                20,
                "every item ran exactly once"
            );
        }
    }

    /// The lifetime contract under stress: the closure borrows a stack
    /// `Vec` that is freed right after the call, so a helper that
    /// outlived the call would read freed (and soon reused) memory.
    #[test]
    fn borrowed_stack_data_is_dropped_right_after_the_call() {
        for round in 0..10_000u64 {
            let data: Vec<u64> = (0..64).map(|i| i * round).collect();
            let out = parallel_map(4, 16, |i| Ok(data[i * 4..i * 4 + 4].iter().sum::<u64>()));
            drop(data);
            let expect: Vec<u64> = (0..16).map(|i| (16 * i + 6) * round).collect();
            assert_eq!(out.unwrap(), expect);
        }
    }

    #[test]
    fn helpers_are_reused_not_respawned() {
        let seen = Mutex::new(std::collections::HashSet::new());
        for _ in 0..1000 {
            parallel_map(4, 8, |_| {
                seen.lock().insert(std::thread::current().id());
                // Long enough for a woken helper to get a turn.
                std::thread::yield_now();
                Ok(())
            })
            .unwrap();
        }
        let helpers = POOL.state.lock().helpers;
        assert!(helpers >= 3, "a width-4 call grows the pool to 3");
        assert!(helpers < WIDEST, "the pool never outgrows the widest call");
        // 4 000 scoped threads before; now this thread plus pool helpers.
        assert!(seen.lock().len() <= 1 + helpers, "{}", seen.lock().len());
    }
}
