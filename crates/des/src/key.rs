//! The scheduling key: any totally ordered, non-negative notion of
//! virtual time that can be mapped *order-preservingly* onto `u64` ticks.
//!
//! The engine never compares keys directly — every ordering decision is
//! made on the tick image, so the mapping must be injective and monotone
//! over the values a simulation actually schedules. For IEEE-754 doubles
//! that mapping is free: the bit pattern of a non-negative finite `f64`
//! orders exactly like its value, which is why [`cpm_core::Time`] (the
//! netsim kernel's clock) schedules without quantization — two distinct
//! timestamps never collapse onto one tick.

use cpm_core::time::Time;

/// A point in virtual time the engine can schedule on.
///
/// # Contract
///
/// `ticks` must be **injective and monotone**: `a < b` (as times) if and
/// only if `a.ticks() < b.ticks()`. The engine breaks ties on the tick
/// image only, so a lossy mapping would silently reorder distinct
/// timestamps. All implementations here satisfy the contract for
/// non-negative values, which is the domain of discrete-event time.
pub trait DesTime: Copy {
    /// The order-preserving `u64` image of this time.
    fn ticks(&self) -> u64;
}

impl DesTime for Time {
    #[inline]
    fn ticks(&self) -> u64 {
        let s = self.secs();
        debug_assert!(s >= 0.0, "event times must be non-negative, got {s}");
        s.to_bits()
    }
}

impl DesTime for u64 {
    #[inline]
    fn ticks(&self) -> u64 {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_bits_order_like_values() {
        let xs = [
            0.0,
            1e-12,
            2.5e-7,
            1e-3,
            0.999,
            1.0,
            1.0 + f64::EPSILON,
            4e9,
        ];
        for w in xs.windows(2) {
            assert!(
                Time::from_secs(w[0]).ticks() < Time::from_secs(w[1]).ticks(),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }
}
