//! Edge-triggered wakeups for the threaded runtime.
//!
//! A worker or the environment thread with no work parks on its
//! [`Notify`] and is woken exactly when a producer hands it something (a
//! ready site, an idle edge, a topology edge). The flag makes the
//! primitive race-free: a notification that arrives between the "no
//! work" check and the park is consumed immediately instead of lost. A
//! daemon never parks: it has no thread, and whoever kicks or holds its
//! cell pumps it.
//!
//! One rule holds for every wake in the runtime: **signal after
//! unlocking.** A woken thread runs at once on a busy core; if the waker
//! still holds a lock the woken thread needs — the `Notify`'s own flag
//! mutex, a daemon's combining cell, the fabric's routing table — the
//! woken thread blocks on it straight away and has to be woken a second
//! time. [`Notify::notify`] therefore raises its flag under the mutex,
//! drops it, and only then signals; [`crate::daemon::DaemonCell`] fires
//! the site wakeups of a pump after it has released the daemon.

use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// Anything a producer can kick. Three things answer a kick — a thread
/// parked on a [`Notify`] condvar (workers, the environment loop), the
/// transport's event loop blocked in `Poller::wait` (woken through its
/// self-pipe [`crate::poller::PollWaker`]), and a daemon's
/// [`crate::daemon::DaemonCell`], which does the daemon's work on the
/// kicking thread instead of waking anyone — and this trait is what lets
/// a producer hand work over without knowing which it is kicking.
pub trait Wake: Send + Sync {
    fn wake(&self);
}

impl Wake for Notify {
    fn wake(&self) {
        self.notify();
    }
}

/// A kick nobody answers: a site's daemon waker until a wall-clock run
/// hands it the daemon's cell. On the virtual clock the run loop pumps
/// every daemon itself.
pub struct NoWake;

impl Wake for NoWake {
    fn wake(&self) {}
}

/// A one-shot, self-resetting wakeup flag (a minimal eventcount).
#[derive(Default)]
pub struct Notify {
    flagged: Mutex<bool>,
    cond: Condvar,
}

impl Notify {
    pub fn new() -> Notify {
        Notify::default()
    }

    /// Signal the parked (or about-to-park) waiter. Idempotent and cheap
    /// when the flag is already raised — a hot producer pays one
    /// uncontended lock, no syscall. The flag is raised under the mutex
    /// and the condvar signalled after it is released, so the waiter
    /// never wakes into a lock its waker still holds.
    pub fn notify(&self) {
        let mut f = self.flagged.lock();
        if *f {
            return;
        }
        *f = true;
        drop(f);
        self.cond.notify_one();
    }

    /// Park until notified or `timeout` elapses, then clear the flag.
    /// Returns immediately when a notification is already pending.
    pub fn wait_timeout(&self, timeout: Duration) {
        let mut f = self.flagged.lock();
        if !*f {
            self.cond.wait_for(&mut f, timeout);
        }
        *f = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn pending_notification_skips_the_park() {
        let n = Notify::new();
        n.notify();
        let t0 = Instant::now();
        n.wait_timeout(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "flag was pending; no wait"
        );
        // The flag is consumed: the next wait times out.
        let t0 = Instant::now();
        n.wait_timeout(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn notify_returns_with_the_flag_raised_and_one_wake_suffices() {
        let n = Arc::new(Notify::new());
        // From a thread holding nothing: returns with the flag raised …
        n.notify();
        assert!(*n.flagged.lock(), "flag is raised on return");
        assert!(
            n.flagged.try_lock().is_some(),
            "and the flag mutex is free again"
        );
        n.wait_timeout(Duration::from_secs(5));
        // … and a parked waiter proceeds on that one wake: the channel
        // forces the order park → notify, and a repeat `notify` is never
        // sent.
        let (parking, parked) = std::sync::mpsc::channel();
        let n2 = n.clone();
        let waiter = std::thread::spawn(move || {
            let t0 = Instant::now();
            parking.send(()).unwrap();
            n2.wait_timeout(Duration::from_secs(10));
            t0.elapsed()
        });
        parked.recv().unwrap();
        n.notify();
        let waited = waiter.join().unwrap();
        assert!(waited < Duration::from_secs(5), "one wake released it");
        assert!(!*n.flagged.lock(), "the waiter consumed the flag");
    }

    #[test]
    fn cross_thread_wakeup() {
        let n = Arc::new(Notify::new());
        let n2 = n.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            n2.notify();
        });
        let t0 = Instant::now();
        n.wait_timeout(Duration::from_secs(10));
        assert!(t0.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }
}
