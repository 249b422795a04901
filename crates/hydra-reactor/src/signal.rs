//! Cooperative shutdown, done right this time.
//!
//! The original `ShutdownSignal` recorded every listener's socket address
//! and, on trigger, *connected to each one* so its blocked `accept` would
//! return — a wake-by-connect hack with a real race: a trigger landing
//! after a listener bound but before it registered its address left that
//! accept loop blocked forever.  This version inverts the registration:
//! listeners register a [`Waker`] (a self-pipe write end), and
//! [`register_waker`](ShutdownSignal::register_waker) wakes *immediately*
//! when the signal already fired — the late-registration race is closed by
//! construction, no connect() games, no dependence on routable addresses.

use crate::wake::Waker;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct SignalInner {
    triggered: AtomicBool,
    wakers: Mutex<Vec<Waker>>,
}

/// A cloneable one-shot shutdown flag that wakes every registered event
/// loop when triggered.
///
/// Clones share state: triggering any clone stops every listener
/// registered on any clone, which is how the frame and pg front-ends are
/// coupled to a single lifetime.
#[derive(Clone, Debug, Default)]
pub struct ShutdownSignal {
    inner: Arc<SignalInner>,
}

impl ShutdownSignal {
    /// A fresh, untriggered signal.
    pub fn new() -> ShutdownSignal {
        ShutdownSignal::default()
    }

    /// True once any clone was triggered.
    pub fn is_triggered(&self) -> bool {
        self.inner.triggered.load(Ordering::SeqCst)
    }

    /// Trips the signal and wakes every registered loop.  Idempotent.
    pub fn trigger(&self) {
        if self.inner.triggered.swap(true, Ordering::SeqCst) {
            return;
        }
        for waker in self
            .inner
            .wakers
            .lock()
            .expect("shutdown wakers poisoned")
            .iter()
        {
            waker.wake();
        }
    }

    /// Registers a loop's waker.  If the signal has already fired the
    /// waker fires right here — a registration can never arrive "too
    /// late" and strand its loop (the race the old address-registration
    /// scheme had).
    pub fn register_waker(&self, waker: Waker) {
        self.inner
            .wakers
            .lock()
            .expect("shutdown wakers poisoned")
            .push(waker.clone());
        if self.is_triggered() {
            waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::wait_readable;
    use crate::wake::WakePipe;
    use std::time::Duration;

    #[test]
    fn trigger_wakes_registered_loops() {
        let signal = ShutdownSignal::new();
        let pipe = WakePipe::new().expect("pipe");
        signal.register_waker(pipe.waker());
        assert!(!signal.is_triggered());

        signal.clone().trigger();
        assert!(signal.is_triggered());
        let ready = wait_readable(&[pipe.fd()], Some(Duration::from_secs(2))).expect("poll");
        assert_eq!(ready, vec![true]);
    }

    #[test]
    fn late_registration_still_wakes() {
        // The regression the old wake-by-connect design had: trigger
        // lands before the listener registers.  The waker must fire at
        // registration time.
        let signal = ShutdownSignal::new();
        signal.trigger();

        let pipe = WakePipe::new().expect("pipe");
        signal.register_waker(pipe.waker());
        let ready = wait_readable(&[pipe.fd()], Some(Duration::from_secs(2))).expect("poll");
        assert_eq!(ready, vec![true]);
    }

    #[test]
    fn trigger_is_idempotent() {
        let signal = ShutdownSignal::new();
        signal.trigger();
        signal.trigger();
        assert!(signal.is_triggered());
    }
}
