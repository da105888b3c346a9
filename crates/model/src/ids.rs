//! Strongly-typed identifiers for the entities of the conferencing model.
//!
//! All identifiers are dense indices (`0..n`) into the corresponding
//! vectors of an [`Instance`](crate::Instance), which keeps every hot-path
//! lookup an array access while the newtypes prevent mixing, say, a user
//! index with an agent index.

use std::fmt;

macro_rules! dense_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a dense index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the dense index as `usize`, suitable for vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            pub const fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                Self(u32::try_from(v).expect("index exceeds u32::MAX"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

dense_id!(
    /// Identifier of a conferencing user (`u ∈ U`).
    UserId,
    "u"
);
dense_id!(
    /// Identifier of a cloud agent (`l ∈ L`), i.e. a VM leased in a cloud site.
    AgentId,
    "a"
);
dense_id!(
    /// Identifier of a conferencing session (`s ∈ S`).
    SessionId,
    "s"
);
dense_id!(
    /// Identifier of a video representation (`r ∈ R`).
    ReprId,
    "r"
);

/// Convenience iterator over the first `n` identifiers of a dense id type.
pub fn id_range<T: From<u32>>(n: usize) -> impl Iterator<Item = T> {
    (0..u32::try_from(n).expect("index exceeds u32::MAX")).map(T::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_index() {
        let u = UserId::new(7);
        assert_eq!(u.index(), 7);
        assert_eq!(u.as_u32(), 7);
        assert_eq!(UserId::from(7usize), u);
        assert_eq!(UserId::from(7u32), u);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(UserId::new(3).to_string(), "u3");
        assert_eq!(AgentId::new(0).to_string(), "a0");
        assert_eq!(SessionId::new(12).to_string(), "s12");
        assert_eq!(ReprId::new(2).to_string(), "r2");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(AgentId::new(1) < AgentId::new(2));
        let mut v = vec![UserId::new(2), UserId::new(0), UserId::new(1)];
        v.sort();
        assert_eq!(v, vec![UserId::new(0), UserId::new(1), UserId::new(2)]);
    }

    #[test]
    fn id_range_yields_dense_ids() {
        let ids: Vec<AgentId> = id_range(3).collect();
        assert_eq!(ids, vec![AgentId::new(0), AgentId::new(1), AgentId::new(2)]);
    }
}
