//! [`Derived`]: a value computed lazily from its owner's additive data
//! and never readable stale.
//!
//! Statistics are published as immutable `Arc` snapshots that planners
//! read concurrently; the query-ready forms of a column's raw data (the
//! sorted sample and equi-depth buckets of a histogram, the estimate of
//! an HLL sketch) are expensive to derive and pure functions of that raw
//! data. A `Derived` cell sits *next to* the raw data inside the owner:
//!
//! * it is filled at most once per state, by whichever reader asks first
//!   (`OnceLock`, so concurrent readers of one snapshot share one build);
//! * every `&mut` method of the owner that touches the raw data calls
//!   [`Derived::invalidate`] — the raw fields are private to the owner's
//!   module, so there is no other write path;
//! * `Clone` yields an **empty** cell: a clone-for-write
//!   (`Arc::make_mut`, `*self = other.clone()`) never shares, or even
//!   copies, what the snapshot it was cloned from derived;
//! * it takes no part in `PartialEq`/`Debug`: two owners are equal when
//!   their additive data is.

use std::sync::OnceLock;

pub(crate) struct Derived<T>(OnceLock<T>);

impl<T> Derived<T> {
    /// The derived value, built by `build` if this state has none yet.
    pub(crate) fn get_or_build(&self, build: impl FnOnce() -> T) -> &T {
        self.0.get_or_init(build)
    }

    /// Drop the derived value: the raw data is about to change.
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.0.take();
    }
}

impl<T> Default for Derived<T> {
    fn default() -> Self {
        Derived(OnceLock::new())
    }
}

impl<T> Clone for Derived<T> {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

impl<T> PartialEq for Derived<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> Eq for Derived<T> {}

impl<T> std::fmt::Debug for Derived<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "Derived(built)"
        } else {
            "Derived(empty)"
        })
    }
}
