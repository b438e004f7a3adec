//! Lock-class-tracked synchronization primitives for the live runtime.
//!
//! A re-export of [`autosel_obs::sync`]: tracked `Mutex`/`Condvar`/`RwLock`
//! wrappers that keep a per-thread held-set and a global acquisition-order
//! graph in debug builds (and under `--features lockcheck`), panicking on
//! lock-order inversions with both offending lock-class chains named, and
//! compiling down to plain `std::sync` passthrough in release builds.
//!
//! The wrappers live in `crates/obs` because the obs crate's own
//! [`FlightRecorder`](autosel_obs::FlightRecorder) ring runs under them too
//! (and obs sits below net in the dependency graph); this module is the
//! name the runtime code uses. Every lock in `crates/net` — the TCP link
//! queue, the delay line, the peer registry — is declared through these
//! types with a `lock-class` annotation that the static `lock-order` pass
//! in `crates/analyze` cross-checks. See docs/ANALYSIS.md ("Concurrency
//! soundness") for the class table and the runtime checker's guarantees.

pub use autosel_obs::sync::{
    lockcheck_active, set_hold_registry, TrackedCondvar, TrackedMutex, TrackedMutexGuard,
    TrackedReadGuard, TrackedRwLock, TrackedWriteGuard,
};
