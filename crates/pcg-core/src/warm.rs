//! Process-wide warm-path switch.
//!
//! The warm execution engine (substrate leasing, input memoization,
//! supervisor reuse) is on by default: it is a pure throughput
//! optimisation whose records are required to match the cold path
//! byte-for-byte. The switch is kept only as the reference side of
//! those checks: `grid_sweep`'s cold-vs-warm A/B and
//! `tests/warm_path.rs` turn it off to produce the cold records the
//! warm ones must equal. Nothing reads it from the environment.
//!
//! The flag is read at every lease checkout / supervisor dispatch, so
//! toggling mid-process takes effect on the next candidate execution.
//! Tests that toggle it must serialise with each other (the integration
//! suites keep all toggling inside a single `#[test]`).

use std::sync::atomic::{AtomicBool, Ordering};

static WARM: AtomicBool = AtomicBool::new(true);

/// Whether the warm path (leasing, memoization, supervisor reuse) is
/// active. Defaults to `true`.
#[inline]
pub fn enabled() -> bool {
    WARM.load(Ordering::Relaxed)
}

/// Flip the warm path on or off for subsequent executions.
pub fn set_enabled(on: bool) {
    WARM.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_round_trips() {
        let was = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(was);
    }
}
