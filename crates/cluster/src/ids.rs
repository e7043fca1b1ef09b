//! Typed identifiers for cluster entities.

use core::fmt;
use serde::Serialize;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw index.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw index.
            pub const fn as_u64(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a worker node.
    NodeId,
    "node-"
);
id_type!(
    /// Identifies a container instance. IDs are never reused, even across
    /// restarts of the "same" pod, mirroring cgroup IDs.
    ContainerId,
    "ctr-"
);
id_type!(
    /// Identifies an application (the Distributed Container scope — all
    /// containers of one tenant/app share its global limits).
    AppId,
    "app-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_prefix() {
        assert_eq!(NodeId::new(3).to_string(), "node-3");
        assert_eq!(ContainerId::new(12).to_string(), "ctr-12");
        assert_eq!(AppId::new(0).to_string(), "app-0");
    }

    #[test]
    fn roundtrip_and_ordering() {
        assert_eq!(ContainerId::new(7).as_u64(), 7);
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
