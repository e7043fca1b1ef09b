//! Simulated time.
//!
//! All simulation time is expressed in integer **microseconds** since the
//! start of the simulation. Microsecond resolution is fine enough for the
//! paper's fastest action (limit application in "100s of microseconds")
//! while keeping arithmetic exact and deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::Serialize;

/// An instant in simulated time (microseconds since simulation start).
///
/// `SimTime` is a transparent newtype over `u64` ([`C-NEWTYPE`]); it cannot
/// be confused with a duration thanks to the type system.
///
/// ```
/// use escra_simcore::time::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(100);
/// assert_eq!(t.as_micros(), 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the epoch as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "duration_since: {earlier:?} > {self:?}");
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds (rounded to microseconds).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration(round_u64(s * 1e6))
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float, rounding to microseconds.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0);
        SimDuration(round_u64(self.0 as f64 * k))
    }
}

/// `x.round() as u64`: the nearest integer, ties away from zero, with NaN
/// and every negative going to 0 and everything from 2⁶⁴ up to
/// `u64::MAX` — without the libm `round` call the default x86-64 target
/// (no SSE4.1 `roundsd`) makes of it. The cast truncates and saturates
/// as `round() as u64` does; `x − trunc(x)` is exact, so the tie test
/// rounds as `round` does (`0.49999999999999994` included, where
/// `(x + 0.5) as u64` gives 1).
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add((x - whole as f64 >= 0.5) as u64)
}

/// `x.ceil() as u64`, saturating like [`round_u64`], without the libm
/// `ceil` call: a value above its truncation has a fractional part.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add((x > whole as f64) as u64)
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// Number of whole `rhs` periods in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}ms", self.as_millis())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<u64> for SimDuration {
    /// Interprets a raw integer as microseconds.
    fn from(us: u64) -> Self {
        SimDuration(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_millis(150);
        let d = SimDuration::from_millis(50);
        assert_eq!((t + d).as_millis(), 200);
        assert_eq!((t - d).as_millis(), 100);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_since_and_saturation() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_secs(5);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(3));
        assert_eq!(a.saturating_sub(SimDuration::from_secs(10)), SimTime::ZERO);
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(0.1).as_millis(), 100);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_millis(100).mul_f64(0.5).as_millis(), 50);
        assert_eq!(
            SimDuration::from_secs(1) / SimDuration::from_millis(100),
            10
        );
    }

    #[test]
    fn round_u64_and_ceil_u64_are_libm_then_cast_to_the_bit() {
        let check = |x: f64| {
            let bits = x.to_bits();
            assert_eq!(round_u64(x), x.round() as u64, "round {x:e} ({bits:#x})");
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil {x:e} ({bits:#x})");
        };
        let two52 = 4503599627370496.0;
        let two64 = 18446744073709551616.0;
        for x in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -0.4,
            -0.5,
            -0.6,
            -1.0,
            -1.5,
            -1e300,
            f64::MIN_POSITIVE,
            5e-324,
            0.49999999999999994, // the largest double below one half
            0.5,
            0.5000000000000001,
            1.0,
            1.5,
            2.5,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52 - 1.0,
            2.0 * two52,
            two64 - 2048.0, // the largest double below 2^64
            two64,
            2.0 * two64,
            1e300,
            f64::MAX,
        ] {
            check(x);
        }
        // Every integer and tie below 2^16, then a stride up to 2^52, each
        // with its neighbours one ulp away on both sides.
        let dense = 0..1u64 << 16;
        let sparse = (1u64 << 16..1 << 52).step_by(1_000_003_393);
        for n in dense.chain(sparse) {
            for x in [n as f64, n as f64 + 0.5] {
                check(x);
                check(f64::from_bits(x.to_bits().wrapping_sub(1)));
                check(f64::from_bits(x.to_bits() + 1));
            }
        }
        // Every double of [2^52, 2^53) has ulp 1 (integers only), a stride
        // through it and through 2^53 ..= 2^64 and beyond.
        for i in (0..1u64 << 52).step_by(999_999_937) {
            check(f64::from_bits(two52.to_bits() + i));
            check(f64::from_bits((2.0 * two52).to_bits() + i * 11));
        }
        // 10^6 raw bit patterns: half anywhere, half with the exponent
        // drawn so the value lands between 2^-2 and 2^66.
        let mut rng = crate::rng::SimRng::new(0x726f_756e); // "roun"
        for _ in 0..500_000 {
            let raw = rng.next_u64();
            check(f64::from_bits(raw));
            let exponent = 1021 + (raw >> 52) % 69;
            let near = (raw & ((1 << 52) - 1)) | (exponent << 52) | (raw & (1 << 63));
            check(f64::from_bits(near));
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
    }
}
