//! Generation-velocity regulation.
//!
//! The vendor screen of the original demo exposes a slider that sets the
//! desired generation velocity in rows per second.  The [`VelocityGovernor`]
//! implements that control with one pacing rule,
//! [`VelocityGovernor::next_pulse`]: it compares how many tuples *should*
//! have been emitted by now against how many actually were, and either
//! releases the next pulse or says how long to wait for it.  The blocking
//! in-process driver sleeps the wait on its own thread; the wire pump parks
//! it on the reactor's timer wheel.

use crate::generator::GenerationStats;
use std::time::{Duration, Instant};

/// What a cooperative stream pump does next (see
/// [`VelocityGovernor::next_pulse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pulse {
    /// Nothing is due yet: poll again after this long.
    Wait(Duration),
    /// Emit this many tuples now, then [`note`](VelocityGovernor::note) them.
    Emit(u64),
    /// Every tuple is out and the final pacing deficit is served.
    Drained,
}

/// Paces tuple emission to a target rate.
#[derive(Debug, Clone)]
pub struct VelocityGovernor {
    /// Target rate in rows per second; `None` = unthrottled.
    target_rows_per_sec: Option<f64>,
    /// Statistics origin: [`elapsed`](Self::elapsed) and
    /// [`achieved_rate`](Self::achieved_rate) always measure from here.
    started: Instant,
    /// Pacing origin.  Normally equal to `started`, but re-anchored forward
    /// after a stall so the schedule never owes more than
    /// [`MAX_CATCHUP_SECS`](Self::MAX_CATCHUP_SECS) worth of catch-up tuples.
    anchor: Instant,
    emitted: u64,
    slept: Duration,
}

impl VelocityGovernor {
    /// Smallest accepted target rate, matching the wire-protocol validation
    /// (`rows_per_sec must be a finite rate >= 0.001`).
    pub const MIN_RATE: f64 = 1e-3;

    /// A governor with the given target velocity (rows/second).
    ///
    /// # Panics
    ///
    /// Panics unless `rows_per_sec` is finite and at least
    /// [`MIN_RATE`](Self::MIN_RATE) — the same validation the wire path
    /// applies, so a zero/subnormal/NaN rate fails loudly at construction
    /// instead of turning every wait into a 60 s sleep.
    pub fn with_rate(rows_per_sec: f64) -> Self {
        assert!(
            rows_per_sec.is_finite() && rows_per_sec >= Self::MIN_RATE,
            "rows_per_sec must be a finite rate >= 0.001, got {rows_per_sec}"
        );
        let now = Instant::now();
        VelocityGovernor {
            target_rows_per_sec: Some(rows_per_sec),
            started: now,
            anchor: now,
            emitted: 0,
            slept: Duration::ZERO,
        }
    }

    /// An unthrottled governor (generation proceeds at full speed).
    pub fn unthrottled() -> Self {
        let now = Instant::now();
        VelocityGovernor {
            target_rows_per_sec: None,
            started: now,
            anchor: now,
            emitted: 0,
            slept: Duration::ZERO,
        }
    }

    /// The configured target rate, if any.
    pub fn target_rate(&self) -> Option<f64> {
        self.target_rows_per_sec
    }

    /// Longest single wait [`next_pulse`](Self::next_pulse) hands out
    /// (pathologically small target rates otherwise turn into
    /// effectively-infinite waits, and a non-finite deadline would panic
    /// `Duration::from_secs_f64`).
    const MAX_PACE_SLEEP_SECS: f64 = 60.0;

    /// Largest emission deficit the schedule will try to catch up on.  After
    /// a stall (reactor `AwaitDrain` park, slow peer, long LP pause) the
    /// governor would otherwise consider *every* tuple since the stall start
    /// due at once and release an unbounded burst; instead the pacing anchor
    /// is moved forward so at most one second's worth of budget is released.
    pub const MAX_CATCHUP_SECS: f64 = 1.0;

    /// Re-anchors the pacing origin when the schedule has fallen more than
    /// [`MAX_CATCHUP_SECS`](Self::MAX_CATCHUP_SECS) behind, capping the
    /// post-stall burst.  Leaves `started` (the statistics origin) untouched.
    fn clamp_catchup(&mut self) {
        let Some(rate) = self.target_rows_per_sec else {
            return;
        };
        let due_at = self.emitted as f64 / rate;
        let deficit = self.anchor.elapsed().as_secs_f64() - due_at;
        if deficit > Self::MAX_CATCHUP_SECS {
            self.anchor += Duration::from_secs_f64(deficit - Self::MAX_CATCHUP_SECS);
        }
    }

    /// Total time this governor has throttled emission: every wait
    /// [`next_pulse`](Self::next_pulse) handed out (the throttling cost the
    /// observability layer reports as governor sleep).
    pub fn slept(&self) -> Duration {
        self.slept
    }

    /// Records that `n` tuples were emitted — the other half of
    /// [`next_pulse`](Self::next_pulse), which sizes each emission and
    /// leaves serving its waits to the caller.
    pub fn note(&mut self, n: u64) {
        self.emitted += n;
    }

    /// The pacing decision of a stream with `remaining` tuples left that
    /// emits in pulses of at most `cap` tuples — the one pacing rule of
    /// every stream driver.
    ///
    /// A throttled stream waits until its *whole* next pulse is due, and a
    /// finished one waits out its final deficit before reporting
    /// [`Pulse::Drained`], so elapsed time is never shorter than rows/rate.
    /// Every wait handed out is accounted in [`slept`](Self::slept); the
    /// caller serves it (by sleeping, or on a timer) and asks again.
    pub fn next_pulse(&mut self, remaining: u64, cap: u64) -> Pulse {
        let goal = cap.min(remaining);
        let wait = if goal == 0 {
            match self.delay_for(0) {
                Some(wait) => wait,
                None => return Pulse::Drained,
            }
        } else {
            match self.budget() {
                // The budget floors a fractional tuple count, so the pulse
                // can be short by less than one tuple's worth of time.
                Some(budget) if budget < goal => {
                    self.delay_for(goal).unwrap_or(Duration::from_millis(1))
                }
                _ => return Pulse::Emit(goal),
            }
        };
        self.slept += wait;
        Pulse::Wait(wait)
    }

    /// How long emission must pause before `extra` *more* tuples (beyond
    /// those already noted) are due under the target rate.  `None` when
    /// unthrottled or when that many tuples are already due now.  Capped at
    /// [`MAX_PACE_SLEEP_SECS`](Self::MAX_PACE_SLEEP_SECS), and the schedule
    /// forgives all but the last second of a stall (see
    /// [`MAX_CATCHUP_SECS`](Self::MAX_CATCHUP_SECS)).
    fn delay_for(&mut self, extra: u64) -> Option<Duration> {
        self.clamp_catchup();
        let rate = self.target_rows_per_sec?;
        let due = (self.emitted + extra) as f64 / rate;
        let elapsed = self.anchor.elapsed().as_secs_f64();
        let wait = due - elapsed;
        if wait > 0.0 {
            Some(Duration::from_secs_f64(wait.min(Self::MAX_PACE_SLEEP_SECS)))
        } else {
            None
        }
    }

    /// How many tuples may be emitted *right now* without overshooting the
    /// target rate.  `None` means unthrottled (no budget at all).  After a
    /// stall the budget is capped at roughly one second's worth of tuples
    /// rather than everything "missed" during the stall.
    fn budget(&mut self) -> Option<u64> {
        self.clamp_catchup();
        let rate = self.target_rows_per_sec?;
        let due = (rate * self.anchor.elapsed().as_secs_f64()).floor() as u64;
        Some(due.saturating_sub(self.emitted))
    }

    /// Number of tuples emitted through this governor.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Time since the governor was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The achieved rate so far (rows per second).
    pub fn achieved_rate(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.emitted as f64 / secs
    }

    /// The run statistics of generating `table` through this governor so
    /// far — the one place a run's [`GenerationStats`] is built, for
    /// in-process runs, shards and wire streams alike.
    pub fn stats(&self, table: &str) -> GenerationStats {
        GenerationStats {
            table: table.to_string(),
            rows: self.emitted,
            elapsed: self.elapsed(),
            achieved_rows_per_sec: self.achieved_rate(),
            target_rows_per_sec: self.target_rows_per_sec,
            governor_sleep: self.slept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `rows` tuples in pulses of at most `cap`, sleeping every wait
    /// (the blocking driver's loop, minus the sink).
    fn drain(g: &mut VelocityGovernor, mut rows: u64, cap: u64) {
        loop {
            match g.next_pulse(rows, cap) {
                Pulse::Wait(wait) => std::thread::sleep(wait),
                Pulse::Emit(n) => {
                    g.note(n);
                    rows -= n;
                }
                Pulse::Drained => return,
            }
        }
    }

    #[test]
    fn unthrottled_governor_never_sleeps() {
        let mut g = VelocityGovernor::unthrottled();
        let start = Instant::now();
        drain(&mut g, 10_000, 1);
        assert!(start.elapsed() < Duration::from_millis(500));
        assert_eq!(g.emitted(), 10_000);
        assert_eq!(g.slept(), Duration::ZERO);
        assert!(g.target_rate().is_none());
    }

    #[test]
    fn throttled_governor_respects_target_rate() {
        // 1000 rows at 10_000 rows/s should take ~100 ms.
        let mut g = VelocityGovernor::with_rate(10_000.0);
        drain(&mut g, 1000, 100);
        assert_eq!(g.emitted(), 1000);
        let elapsed = g.elapsed();
        assert!(
            elapsed >= Duration::from_millis(90),
            "generation finished too fast: {elapsed:?}"
        );
        let achieved = g.achieved_rate();
        assert!(
            achieved <= 11_500.0,
            "achieved rate {achieved:.0} exceeds the target by more than 15%"
        );
    }

    #[test]
    fn noted_emission_ahead_of_schedule_owes_a_wait() {
        let mut g = VelocityGovernor::with_rate(1000.0);
        g.note(100);
        let wait = g
            .delay_for(0)
            .expect("100 rows at 1000/s are ahead of schedule");
        assert!(wait <= Duration::from_millis(100));
        assert!(wait >= Duration::from_millis(50), "got {wait:?}");
        // Unthrottled: no delay, no budget.
        let mut g = VelocityGovernor::unthrottled();
        g.note(1_000_000);
        assert!(g.delay_for(0).is_none());
        assert!(g.budget().is_none());
    }

    #[test]
    fn next_pulse_sizes_pulses_and_accounts_every_wait() {
        let mut g = VelocityGovernor::unthrottled();
        assert_eq!(g.next_pulse(100, 16), Pulse::Emit(16));
        assert_eq!(g.next_pulse(5, 16), Pulse::Emit(5));
        assert_eq!(g.next_pulse(0, 16), Pulse::Drained);
        assert_eq!(g.slept(), Duration::ZERO);

        // Nothing is due at t=0: wait until the whole 100-tuple pulse is.
        let mut g = VelocityGovernor::with_rate(1000.0);
        let Pulse::Wait(wait) = g.next_pulse(500, 100) else {
            panic!("a throttled stream must wait for its first pulse");
        };
        assert!(wait <= Duration::from_millis(100), "got {wait:?}");
        assert!(wait >= Duration::from_millis(50), "got {wait:?}");
        assert_eq!(g.slept(), wait);
        // A finished stream ahead of schedule waits out its final deficit.
        g.note(100);
        let Pulse::Wait(tail) = g.next_pulse(0, 100) else {
            panic!("100 rows at 1000/s are ahead of schedule");
        };
        assert_eq!(g.slept(), wait + tail);
    }

    #[test]
    fn budget_counts_due_tuples() {
        let mut g = VelocityGovernor::with_rate(10_000.0);
        assert_eq!(g.budget(), Some(0), "nothing is due at t=0");
        std::thread::sleep(Duration::from_millis(20));
        let due = g.budget().expect("throttled governor has a budget");
        assert!(due >= 100, "~200 rows should be due after 20 ms, got {due}");
        g.note(due);
        let after = g.budget().unwrap();
        assert!(after <= due, "noting the emission consumes the budget");
    }

    #[test]
    fn stall_catchup_burst_is_capped() {
        // 2 s stall at 1000 rows/s: the naive schedule would owe ~2000 tuples
        // at once; the re-anchored schedule releases at most ~1.25x the
        // per-second budget.
        let mut g = VelocityGovernor::with_rate(1000.0);
        std::thread::sleep(Duration::from_secs(2));
        let burst = g.budget().expect("throttled governor has a budget");
        assert!(
            burst <= 1250,
            "2 s stall released {burst} tuples in one call (> 1.25x the 1000/s budget)"
        );
        assert!(
            burst >= 800,
            "catch-up cap should still allow ~1 s of budget, got {burst}"
        );
        // Statistics keep measuring from construction, not from the anchor.
        assert!(g.elapsed() >= Duration::from_secs(2));
        // Once the burst is consumed, pacing resumes at the target rate.
        g.note(burst);
        let wait = g.delay_for(100).expect("next 100 tuples must be paced");
        assert!(wait <= Duration::from_millis(150), "got {wait:?}");
    }

    #[test]
    fn with_rate_accepts_the_wire_minimum() {
        let g = VelocityGovernor::with_rate(VelocityGovernor::MIN_RATE);
        assert_eq!(g.target_rate(), Some(1e-3));
    }

    #[test]
    #[should_panic(expected = "finite rate >= 0.001")]
    fn with_rate_rejects_zero() {
        let _ = VelocityGovernor::with_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "finite rate >= 0.001")]
    fn with_rate_rejects_subnormal() {
        let _ = VelocityGovernor::with_rate(f64::MIN_POSITIVE);
    }

    #[test]
    #[should_panic(expected = "finite rate >= 0.001")]
    fn with_rate_rejects_nan() {
        let _ = VelocityGovernor::with_rate(f64::NAN);
    }

    #[test]
    fn achieved_rate_reflects_emission() {
        let mut g = VelocityGovernor::unthrottled();
        g.note(500);
        std::thread::sleep(Duration::from_millis(20));
        let rate = g.achieved_rate();
        assert!(rate > 0.0);
        assert!(rate <= 500.0 / 0.02 + 1.0);
    }
}
