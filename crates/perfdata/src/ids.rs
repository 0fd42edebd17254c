//! Typed arena identifiers, one per data-model class, and the hash maps
//! keyed by them.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher of maps keyed by ids a [`crate::Store`] assigned itself — dense,
/// never chosen by whoever sends the data: the store's secondary indexes
/// and what ingestion records about them (`cosy-online`'s `StoreDelta`,
/// `cosy`'s dirty `ContextScope`). SipHash's protection against crafted
/// keys buys nothing there, and its cost is paid on every metric load of
/// an evaluation and every applied event. One rotate, xor and multiply per
/// word.
///
/// Iteration order is arbitrary, as it already was under `RandomState`,
/// and nothing depends on it: the incremental engine's scopes are
/// `BTreeMap`s and `Analyzer::instances_scoped` enumerates property
/// families in order, only asking a set whether it holds an id.
///
/// Keys a producer chooses — run keys, version tags, function and region
/// names, the sharded router's run routes — stay on SipHash: they arrive
/// over the network, and a fixed unseeded hash would let a peer craft keys
/// that all land in one bucket.
#[derive(Debug, Default, Clone)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }

    /// An enum's discriminant (`TimingType`) arrives as an `isize`.
    fn write_isize(&mut self, word: isize) {
        self.write_u64(word as u64);
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// The table takes its bucket from the low bits and its tag from the
    /// top seven; the multiply mixes upwards, so bring the top down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A hash map keyed by ids of a [`crate::Store`] (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of ids of a [`crate::Store`] (see [`IdHasher`]).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $short:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index into the owning arena.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

define_id!(
    /// Identifier of a [`crate::Program`].
    ProgramId,
    "prog"
);
define_id!(
    /// Identifier of a [`crate::ProgVersion`].
    VersionId,
    "ver"
);
define_id!(
    /// Identifier of a [`crate::TestRun`].
    TestRunId,
    "run"
);
define_id!(
    /// Identifier of a [`crate::Function`].
    FunctionId,
    "fn"
);
define_id!(
    /// Identifier of a [`crate::Region`].
    RegionId,
    "reg"
);
define_id!(
    /// Identifier of a [`crate::TotalTiming`].
    TotalTimingId,
    "tot"
);
define_id!(
    /// Identifier of a [`crate::TypedTiming`].
    TypedTimingId,
    "typ"
);
define_id!(
    /// Identifier of a [`crate::FunctionCall`].
    CallId,
    "call"
);
define_id!(
    /// Identifier of a [`crate::CallTiming`].
    CallTimingId,
    "ct"
);
define_id!(
    /// Identifier of a [`crate::SourceCode`].
    SourceId,
    "src"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(RegionId(4).to_string(), "reg4");
        assert_eq!(TestRunId(0).to_string(), "run0");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(RegionId(1) < RegionId(2));
        assert_eq!(RegionId(7).index(), 7);
    }
}
