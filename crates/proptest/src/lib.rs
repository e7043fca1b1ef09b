//! Vendored, offline stand-in for the `proptest` crate.
//!
//! The build container has no registry access, so this shim provides
//! the subset of proptest this workspace uses: the [`proptest!`] macro,
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assert_ne!`] (a failing
//! `_eq`/`_ne` prints both values, after the message if one is given),
//! range and tuple strategies, `any::<bool>()`, and `collection::vec`. Sampling is driven by a
//! splitmix64 generator seeded from the test name, so every run of a
//! given test explores the same deterministic case set (no shrinking).

pub mod strategy;
pub mod test_runner;

/// Number of cases each `proptest!` test runs.
pub const NUM_CASES: u32 = 96;

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + (rng.next_u64() as usize) % span;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The usual glob-import surface.

    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: each `fn name(arg in strategy, ...)` block
/// becomes a `#[test]` that samples [`NUM_CASES`](crate::NUM_CASES)
/// deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for case in 0..$crate::NUM_CASES {
                    $(
                        #[allow(unused_mut)]
                        let mut $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )*
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!("proptest {} case {case}: {e}", stringify!($name));
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// panicking directly) when it does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} == {:?}", l, r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} == {:?}", format_args!($($fmt)+), l, r),
            ));
        }
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {:?} != {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} != {:?}", format_args!($($fmt)+), l, r),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    proptest! {
        #[test]
        #[should_panic(expected = "row 3 diverged: 41 == 42")]
        fn eq_with_a_message_prints_both_values(x in 0u64..1) {
            prop_assert_eq!(x + 41, 42u64, "row {} diverged", 3);
        }

        #[test]
        #[should_panic(expected = "seq reused: 7 != 7")]
        fn ne_with_a_message_prints_both_values(x in 0u64..1) {
            prop_assert_ne!(x + 7, 7u64, "seq reused");
        }
    }
}
