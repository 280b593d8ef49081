//! Identifier newtypes.
//!
//! Each entity class in the platform gets its own id type so the compiler
//! rejects mixed-up arguments ("newtypes provide static distinctions").
//! Ids are dense small integers handed out by the owning registry
//! (cluster state, application registry, job tracker); they are `Copy`,
//! hashable and ordered so they can key `HashMap`s and `BTreeMap`s alike.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name($inner);

        impl $name {
            /// Wraps a raw index as an id.
            #[must_use]
            pub const fn new(raw: $inner) -> Self {
                $name(raw)
            }

            /// The raw index behind this id.
            #[must_use]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// The raw index as `usize`, for direct slice indexing.
            #[must_use]
            pub const fn as_usize(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// Identifies a node in the cluster.
    ///
    /// # Examples
    ///
    /// ```
    /// use evolve_types::NodeId;
    /// let n = NodeId::new(3);
    /// assert_eq!(n.to_string(), "node-3");
    /// ```
    NodeId,
    u32,
    "node-"
);

id_type!(
    /// Identifies a pod (one replica of an application or one member of a
    /// gang job).
    ///
    /// # Examples
    ///
    /// ```
    /// use evolve_types::PodId;
    /// assert_eq!(PodId::new(17).raw(), 17);
    /// ```
    PodId,
    u64,
    "pod-"
);

id_type!(
    /// Identifies a managed application (a deployment with a PLO).
    ///
    /// # Examples
    ///
    /// ```
    /// use evolve_types::AppId;
    /// assert_eq!(AppId::new(0).to_string(), "app-0");
    /// ```
    AppId,
    u32,
    "app-"
);

id_type!(
    /// Identifies a batch or HPC job instance.
    ///
    /// # Examples
    ///
    /// ```
    /// use evolve_types::JobId;
    /// assert_eq!(JobId::new(5).as_usize(), 5);
    /// ```
    JobId,
    u64,
    "job-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn display_formats_with_prefix() {
        assert_eq!(NodeId::new(1).to_string(), "node-1");
        assert_eq!(PodId::new(2).to_string(), "pod-2");
        assert_eq!(AppId::new(3).to_string(), "app-3");
        assert_eq!(JobId::new(4).to_string(), "job-4");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut hs = HashSet::new();
        let mut bs = BTreeSet::new();
        for i in 0..10u32 {
            hs.insert(NodeId::new(i));
            bs.insert(NodeId::new(i));
        }
        assert_eq!(hs.len(), 10);
        assert_eq!(bs.iter().next(), Some(&NodeId::new(0)));
        assert_eq!(bs.iter().last(), Some(&NodeId::new(9)));
    }

    #[test]
    fn from_raw_roundtrips() {
        let p: PodId = 42u64.into();
        assert_eq!(p.raw(), 42);
        assert_eq!(p.as_usize(), 42);
    }
}
