//! Virtual time.
//!
//! All latencies in the simulator are expressed against a shared
//! [`SimClock`] with nanosecond resolution. The clock only moves forward;
//! components compute *completion times* and the party that semantically
//! blocks (e.g. a direct-I/O write in the filesystem layer) advances the
//! clock to that completion. This makes whole experiments deterministic:
//! "minutes" on a plot are simulated minutes, not wall-clock minutes.
//!
//! Each shared-nothing stack of a concurrent experiment runs on its own
//! [`SimClock`]; nothing couples the timelines, so a shard's result does
//! not depend on which thread simulates it or when.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Nanoseconds of simulated time.
pub type Ns = u64;

/// One microsecond in [`Ns`].
pub const MICROSECOND: Ns = 1_000;
/// One millisecond in [`Ns`].
pub const MILLISECOND: Ns = 1_000_000;
/// One second in [`Ns`].
pub const SECOND: Ns = 1_000_000_000;
/// One minute in [`Ns`].
pub const MINUTE: Ns = 60 * SECOND;

/// A monotonically non-decreasing virtual clock shared by every component
/// of a simulated storage stack.
///
/// Cloning the surrounding `Arc<SimClock>` shares the same timeline.
#[derive(Debug, Default)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A new clock at time zero, wrapped for sharing.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            now_ns: AtomicU64::new(0),
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> Ns {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advance the clock to `t` if `t` is in the future; never moves
    /// backwards. Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: Ns) -> Ns {
        self.now_ns.fetch_max(t, Ordering::Relaxed).max(t)
    }

    /// Advance the clock by `delta` nanoseconds and return the new time.
    pub fn advance(&self, delta: Ns) -> Ns {
        self.now_ns.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Reset to time zero. Only used between experiment phases (e.g. after
    /// preconditioning) so plots start at t=0.
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance_to(5), 10, "advance_to must not move backwards");
        assert_eq!(c.now(), 10);
        assert_eq!(c.advance_to(25), 25);
        assert_eq!(c.now(), 25);
    }

    #[test]
    fn clock_reset() {
        let c = SimClock::new();
        c.advance(100);
        c.reset();
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn unit_constants() {
        assert_eq!(SECOND, 1_000 * MILLISECOND);
        assert_eq!(MILLISECOND, 1_000 * MICROSECOND);
        assert_eq!(MINUTE, 60 * SECOND);
    }
}
