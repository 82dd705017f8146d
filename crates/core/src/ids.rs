//! Typed identifiers for the network's entities.
//!
//! Plain `u32` newtypes: zero-cost, `Copy`, and they prevent the classic
//! "passed a sensor index where a target index was expected" bug across the
//! clustering / scheduling / simulation boundaries.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(i: usize) -> Self {
                Self(i as u32)
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
    /// Identifier of a sensor node (the base station assigns these after
    /// deployment, §III-A).
    SensorId,
    "s"
);
id_type!(
    /// Identifier of a monitored target.
    TargetId,
    "t"
);
id_type!(
    /// Identifier of a recharging vehicle.
    RvId,
    "rv"
);
id_type!(
    /// Identifier of a sensor cluster (one per covered target).
    ClusterId,
    "c"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefixes() {
        assert_eq!(SensorId(7).to_string(), "s7");
        assert_eq!(TargetId(0).to_string(), "t0");
        assert_eq!(RvId(2).to_string(), "rv2");
        assert_eq!(ClusterId(11).to_string(), "c11");
    }

    #[test]
    fn ids_round_trip_indices() {
        let s: SensorId = 42usize.into();
        assert_eq!(s.index(), 42);
        assert_eq!(s, SensorId(42));
    }

    #[test]
    fn ids_are_ordered() {
        assert!(SensorId(1) < SensorId(2));
    }
}
