//! Division by runtime divisors that are powers of two in practice.
//!
//! The PRAM address path divides by geometry fields (word size, stripe
//! size, channel, module and partition counts) on every simulated word.
//! Those fields are data, so the compiler emits a hardware divide, yet
//! every shipped geometry makes them powers of two. [`div`] and [`rem`]
//! take a shift or mask for those and fall back to `/` and `%` for any
//! other divisor: the result is the same, and a zero divisor still
//! panics.

/// `a / d`, as a shift when `d` is a power of two.
///
/// # Panics
///
/// Panics if `d` is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(util::pow2::div(100, 32), 3);
/// assert_eq!(util::pow2::div(100, 3), 33);
/// ```
#[inline]
pub fn div(a: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        a >> d.trailing_zeros()
    } else {
        a / d
    }
}

/// `a % d`, as a mask when `d` is a power of two.
///
/// # Panics
///
/// Panics if `d` is zero.
///
/// # Examples
///
/// ```
/// assert_eq!(util::pow2::rem(100, 32), 4);
/// assert_eq!(util::pow2::rem(100, 3), 1);
/// ```
#[inline]
pub fn rem(a: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        a & (d - 1)
    } else {
        a % d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_hardware_division() {
        let divisors = [1u64, 2, 3, 16, 32, 48, 512, 1 << 40, u64::MAX];
        let values = [0u64, 1, 31, 32, 33, 12_345, 1 << 40, u64::MAX - 1, u64::MAX];
        for d in divisors {
            for a in values {
                assert_eq!(div(a, d), a / d, "{a} / {d}");
                assert_eq!(rem(a, d), a % d, "{a} % {d}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_divisor_panics() {
        div(1, 0);
    }
}
