//! Stage-timing observation hooks for the pipeline.
//!
//! The core crate cannot depend on the engine (the dependency points the
//! other way), yet the engine's trace collector wants per-stage child
//! spans around [`optimize`](crate::optimize) /
//! [`baseline`](crate::baseline) — kernel extraction, fragmentation,
//! verification, scheduling, allocation, timing — so stage-level caching
//! work has a measured baseline. This module is the seam: the pipeline
//! wraps each stage in `observe`, and an embedder may register one
//! process-global observer that receives `(stage name, duration)` after
//! each stage completes.
//!
//! With no observer registered, `observe` is one relaxed atomic load
//! plus a direct call — no clock read, no allocation — so the pipeline's
//! hot path is unchanged for every caller that never traces.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

type Observer = Box<dyn Fn(&'static str, Duration) + Send + Sync>;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static OBSERVER: Mutex<Option<Observer>> = Mutex::new(None);

/// Locks the observer slot. A panicking observer poisons the lock while
/// `observe` holds it, but the slot itself is always valid, so recover the
/// guard: otherwise every later observation would be dropped and
/// [`set_observer`]/[`clear_observer`] would panic.
fn slot() -> MutexGuard<'static, Option<Observer>> {
    OBSERVER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registers the process-global stage observer, replacing any previous
/// one. The observer runs on whichever thread executes the stage, after
/// the stage completes; it must not call back into the pipeline.
pub fn set_observer(observer: impl Fn(&'static str, Duration) + Send + Sync + 'static) {
    *slot() = Some(Box::new(observer));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Unregisters the stage observer; `observe` reverts to a direct call.
///
/// Once this returns, the old observer will never run again: `observe`
/// only invokes the observer while holding the `OBSERVER` lock, so any
/// in-flight invocation must finish before this function can acquire the
/// lock and clear the slot. The flag is flipped *inside* the critical
/// section (it used to be flipped before taking the lock — benign even
/// then, for the same lock-ordering reason, but flipping it under the
/// lock makes the flag and the slot change atomically with respect to
/// observers and leaves nothing to reason about).
pub fn clear_observer() {
    let mut guard = slot();
    ACTIVE.store(false, Ordering::SeqCst);
    *guard = None;
}

/// Runs `stage`, reporting its wall-clock duration to the registered
/// observer (if any) under `name`.
pub(crate) fn observe<R>(name: &'static str, stage: impl FnOnce() -> R) -> R {
    if !ACTIVE.load(Ordering::Relaxed) {
        return stage();
    }
    let started = Instant::now();
    let result = stage();
    let elapsed = started.elapsed();
    if let Some(observer) = slot().as_ref() {
        observer(name, elapsed);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    /// The observer is process-global, so tests that install/clear it
    /// must not interleave. (A poisoned lock just means another observer
    /// test failed; don't cascade the panic.)
    static OBSERVER_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn observer_sees_stage_names_and_durations() {
        let _serial = OBSERVER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let seen: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let calls = Arc::new(AtomicUsize::new(0));
        {
            let seen = Arc::clone(&seen);
            let calls = Arc::clone(&calls);
            // The observer is process-global and sibling tests exercise
            // the pipeline concurrently; count only this test's stage.
            set_observer(move |name, _dur| {
                if name == "unit" {
                    seen.lock().unwrap().push(name);
                    calls.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let value = observe("unit", || 41 + 1);
        assert_eq!(value, 42);
        clear_observer();
        // After clearing, stages run unobserved.
        observe("unit", || ());
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(*seen.lock().unwrap(), vec!["unit"]);
    }

    #[test]
    fn a_panicking_observer_does_not_disable_observation() {
        let _serial = OBSERVER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_observer(|name, _dur| {
            if name == "explode" {
                panic!("observer boom");
            }
        });
        // The panic unwinds out of `observe` while it holds the slot lock,
        // poisoning it.
        let caught = std::panic::catch_unwind(|| observe("explode", || ()));
        assert!(caught.is_err(), "the observer's panic propagates to the stage's caller");
        assert!(OBSERVER.is_poisoned());

        // Clearing and re-registering still work...
        clear_observer();
        let seen = Arc::new(AtomicUsize::new(0));
        {
            let seen = Arc::clone(&seen);
            set_observer(move |name, _dur| {
                if name == "after" {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // ...and the new observer sees the next stage.
        observe("after", || ());
        clear_observer();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cleared_observer_never_fires_after_clear_returns() {
        let _serial = OBSERVER_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Hammer `observe` from several threads while the main thread
        // installs and clears the observer; the observer records a
        // violation if it ever runs after `clear_observer` returned.
        let cleared = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let workers: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        observe("hammer", || std::hint::black_box(1 + 1));
                    }
                })
            })
            .collect();

        for _ in 0..200 {
            cleared.store(false, Ordering::SeqCst);
            {
                let cleared = Arc::clone(&cleared);
                let violations = Arc::clone(&violations);
                set_observer(move |name, _dur| {
                    if name == "hammer" && cleared.load(Ordering::SeqCst) {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            std::thread::yield_now();
            clear_observer();
            // From here on the old observer must be dead. The flag flip
            // below is what arms the violation counter: any late
            // invocation on a worker thread would now see `cleared`.
            cleared.store(true, Ordering::SeqCst);
            std::thread::yield_now();
        }

        stop.store(true, Ordering::SeqCst);
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0, "observer fired after clear returned");
    }
}
