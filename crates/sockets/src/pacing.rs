//! Absolute-deadline packet pacing.
//!
//! Periodic streams are defined by *absolute* send deadlines `t0 + i·T`;
//! sleeping for relative intervals accumulates drift and context-switch
//! error. We sleep coarsely until shortly before the deadline and spin for
//! the remainder — the standard technique for µs-accurate userspace pacing
//! (and the reason this crate paces on its own threads or readiness loop,
//! not on an async runtime's timers).

use crate::clock::MonoClock;
use std::time::Duration;

/// How close to the deadline the coarse sleep is allowed to get; the rest
/// is spun. Linux nanosleep overshoot is typically ≲ 100 µs.
const SPIN_WINDOW_NS: u64 = 300_000;

/// Block until `deadline_ns` on `clock`. Returns the overshoot in
/// nanoseconds (0 if we were already past the deadline).
pub fn pace_until(clock: &MonoClock, deadline_ns: u64) -> u64 {
    loop {
        let now = clock.now_ns();
        if now >= deadline_ns {
            return now - deadline_ns;
        }
        let remaining = deadline_ns - now;
        if remaining > SPIN_WINDOW_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_WINDOW_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_deadlines_with_low_overshoot() {
        let clock = MonoClock::new();
        let start = clock.now_ns();
        let mut max_overshoot = 0u64;
        for i in 1..=20u64 {
            let deadline = start + i * 2_000_000; // every 2 ms
            let overshoot = pace_until(&clock, deadline);
            max_overshoot = max_overshoot.max(overshoot);
            assert!(clock.now_ns() >= deadline);
        }
        // Allow generous slack for loaded CI machines; the point is that
        // overshoot is bounded, not that the box is an RTOS.
        assert!(
            max_overshoot < 2_000_000,
            "overshoot {max_overshoot}ns is pathological"
        );
    }

    #[test]
    fn past_deadline_returns_immediately() {
        let clock = MonoClock::new();
        std::thread::sleep(Duration::from_millis(2));
        let overshoot = pace_until(&clock, 0);
        assert!(overshoot >= 2_000_000);
    }
}
