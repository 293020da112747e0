//! Online change detection for streaming residuals.
//!
//! Model parameters are platform *measurements*; when the platform changes
//! underneath a fitted model, the stream of prediction residuals shifts.
//! Two classical sequential detectors watch that stream:
//!
//! * [`Ewma`] — an exponentially weighted moving average, the smoothed
//!   "current level" of the residuals;
//! * [`Cusum`] — a two-sided CUSUM (Page's cumulative sum) on standardized
//!   residuals, which accumulates evidence of a *sustained* mean shift and
//!   alarms when either one-sided statistic exceeds a threshold `h`.
//!
//! CUSUM's false-alarm behaviour is characterized by the in-control average
//! run length ARL₀: the expected number of stationary observations between
//! false alarms. [`CusumConfig::for_arl`] inverts Siegmund's approximation
//!
//! ```text
//! ARL₀ ≈ (exp(2·a) − 2·a − 1) / (2·k²),   a = k·(h + 1.166)
//! ```
//!
//! to pick `h` from a target ARL₀, so callers state "at most one false alarm
//! per N observations" instead of a raw threshold.

/// Exponentially weighted moving average of a stream.
#[derive(Clone, Copy, Debug)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]` (larger
    /// reacts faster).
    ///
    /// # Panics
    /// Panics when `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Ewma { alpha, value: None }
    }

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// The current smoothed value (`None` before any observation).
    #[inline]
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// The asymptotic standard deviation of the EWMA of a unit-variance
    /// stationary stream: `sqrt(alpha / (2 − alpha))`. Useful for turning
    /// the EWMA level into a z-score.
    pub fn stationary_sd(&self) -> f64 {
        (self.alpha / (2.0 - self.alpha)).sqrt()
    }

    /// Forgets all state.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

/// Parameters of a two-sided CUSUM detector, in units of the stream's
/// standard deviation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CusumConfig {
    /// Reference value (slack): half the shift magnitude the detector is
    /// tuned to catch quickly. The classic choice `k = 0.5` targets 1σ
    /// shifts.
    pub k: f64,
    /// Decision threshold: alarm when either one-sided statistic exceeds
    /// `h`.
    pub h: f64,
}

impl CusumConfig {
    /// A detector tuned for 1σ shifts (`k = 0.5`) with the widely used
    /// `h = 5` (ARL₀ ≈ 930 under Siegmund's approximation).
    pub fn standard() -> Self {
        CusumConfig { k: 0.5, h: 5.0 }
    }

    /// Chooses `h` for slack `k` so the in-control average run length is at
    /// least `arl` observations, via Siegmund's approximation.
    ///
    /// # Panics
    /// Panics when `k` or `arl` is not positive and finite.
    pub fn for_arl(k: f64, arl: f64) -> Self {
        assert!(k > 0.0 && k.is_finite(), "k must be positive, got {k}");
        assert!(arl > 1.0 && arl.is_finite(), "arl must exceed 1, got {arl}");
        // siegmund_arl(h) is strictly increasing in h; bisect.
        let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
        while Self::siegmund_arl(k, hi) < arl {
            hi *= 2.0;
            assert!(hi < 1e6, "ARL target {arl} unreachable for k = {k}");
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if Self::siegmund_arl(k, mid) < arl {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        CusumConfig { k, h: hi }
    }

    /// Siegmund's approximation of the one-sided in-control ARL.
    fn siegmund_arl(k: f64, h: f64) -> f64 {
        let a = k * (h + 1.166);
        ((2.0 * a).exp() - 2.0 * a - 1.0) / (2.0 * k * k)
    }
}

/// Which side of a two-sided CUSUM crossed the threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CusumAlarm {
    /// The stream's mean shifted upward.
    Up,
    /// The stream's mean shifted downward.
    Down,
}

/// A two-sided CUSUM detector over standardized observations.
///
/// Feed z-scores (residual divided by its stationary standard deviation);
/// [`Cusum::push`] returns `Some` on the observation that first crosses the
/// threshold. After an alarm the statistics keep accumulating — call
/// [`Cusum::reset`] once the alarm has been acted upon.
#[derive(Clone, Copy, Debug)]
pub struct Cusum {
    cfg: CusumConfig,
    pos: f64,
    neg: f64,
    alarmed: bool,
}

impl Cusum {
    /// Creates a detector with the given configuration.
    pub fn new(cfg: CusumConfig) -> Self {
        Cusum {
            cfg,
            pos: 0.0,
            neg: 0.0,
            alarmed: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> CusumConfig {
        self.cfg
    }

    /// Folds one standardized observation in; returns the alarm raised by
    /// *this* observation, if any (later observations return `None` until
    /// [`Cusum::reset`]).
    #[inline]
    pub fn push(&mut self, z: f64) -> Option<CusumAlarm> {
        self.pos = (self.pos + z - self.cfg.k).max(0.0);
        self.neg = (self.neg - z - self.cfg.k).max(0.0);
        if self.alarmed {
            return None;
        }
        if self.pos > self.cfg.h {
            self.alarmed = true;
            Some(CusumAlarm::Up)
        } else if self.neg > self.cfg.h {
            self.alarmed = true;
            Some(CusumAlarm::Down)
        } else {
            None
        }
    }

    /// The larger of the two one-sided statistics — the current evidence
    /// for a shift, comparable against `h`.
    #[inline]
    pub fn statistic(&self) -> f64 {
        self.pos.max(self.neg)
    }

    /// `true` once an alarm has fired (and not been reset).
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }

    /// Clears the accumulated evidence and re-arms the detector.
    pub fn reset(&mut self) {
        self.pos = 0.0;
        self.neg = 0.0;
        self.alarmed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_tracks_level() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        e.push(1.0);
        assert_eq!(e.value(), Some(1.0));
        e.push(3.0);
        assert_eq!(e.value(), Some(2.0));
        e.reset();
        assert_eq!(e.value(), None);
    }

    #[test]
    fn ewma_stationary_sd_matches_formula() {
        let e = Ewma::new(0.2);
        assert!((e.stationary_sd() - (0.2f64 / 1.8).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn cusum_fires_up_on_sustained_shift() {
        let mut c = Cusum::new(CusumConfig::standard());
        // 1σ upward shift: drift rate k per observation → ~2h/1 obs to fire.
        let mut fired_at = None;
        for i in 0..100 {
            if let Some(alarm) = c.push(1.0) {
                assert_eq!(alarm, CusumAlarm::Up);
                fired_at = Some(i);
                break;
            }
        }
        // S⁺ grows by 0.5 per obs; crosses h = 5 on the 11th.
        assert_eq!(fired_at, Some(10));
    }

    #[test]
    fn cusum_fires_down_on_negative_shift() {
        let mut c = Cusum::new(CusumConfig::standard());
        let mut alarm = None;
        for _ in 0..100 {
            if let Some(a) = c.push(-2.0) {
                alarm = Some(a);
                break;
            }
        }
        assert_eq!(alarm, Some(CusumAlarm::Down));
    }

    #[test]
    fn cusum_ignores_zero_mean_stream_and_resets() {
        let mut c = Cusum::new(CusumConfig::standard());
        for i in 0..1000 {
            // Deterministic alternating ±1: zero mean, unit magnitude.
            let z = if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(c.push(z), None);
        }
        assert!(c.statistic() <= 1.0);
        c.push(100.0);
        assert!(c.alarmed());
        c.reset();
        assert!(!c.alarmed());
        assert_eq!(c.statistic(), 0.0);
    }

    #[test]
    fn alarm_fires_once_until_reset() {
        let mut c = Cusum::new(CusumConfig { k: 0.5, h: 1.0 });
        assert_eq!(c.push(10.0), Some(CusumAlarm::Up));
        assert_eq!(c.push(10.0), None);
        c.reset();
        assert_eq!(c.push(10.0), Some(CusumAlarm::Up));
    }

    #[test]
    fn siegmund_arl_monotone_and_for_arl_inverts() {
        assert!(
            CusumConfig::siegmund_arl(0.5, 5.0) > CusumConfig::siegmund_arl(0.5, 3.0),
            "ARL must grow with h"
        );
        for target in [100.0, 1e4, 1e7] {
            let cfg = CusumConfig::for_arl(0.5, target);
            let achieved = CusumConfig::siegmund_arl(cfg.k, cfg.h);
            assert!(
                achieved >= target && achieved < target * 1.01,
                "target {target}: h = {} gives ARL {achieved}",
                cfg.h
            );
        }
    }

    #[test]
    fn standard_config_has_textbook_arl() {
        let arl = CusumConfig::siegmund_arl(0.5, 5.0);
        assert!((900.0..1000.0).contains(&arl), "ARL₀ {arl}");
    }
}
