//! Application priority classes for cluster-level capacity arbitration.
//!
//! When aggregate resize demand exceeds schedulable capacity, the
//! capacity arbiter orders applications by [`PriorityClass`]: lower
//! classes are shed entirely before a higher class loses anything.

use std::fmt;

/// How important an application is when the cluster runs out of capacity.
///
/// Ordering is by *importance*: `Critical > Standard > Preemptible`
/// (matching the arbitration rule "shed lower classes first").
///
/// # Examples
///
/// ```
/// use evolve_types::PriorityClass;
/// assert!(PriorityClass::Critical > PriorityClass::Standard);
/// assert!(PriorityClass::Standard > PriorityClass::Preemptible);
/// assert_eq!(PriorityClass::default(), PriorityClass::Standard);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PriorityClass {
    /// First to be shed: scavenger work that tolerates full revocation.
    Preemptible,
    /// The default class: clipped proportionally only after every
    /// preemptible app has been fully shed.
    #[default]
    Standard,
    /// Never shed while anything lower-priority holds a grant; clipped
    /// only when critical demand alone exceeds capacity.
    Critical,
}

impl PriorityClass {
    /// All classes from most to least important — the order the arbiter
    /// allocates capacity in.
    pub const DESCENDING: [PriorityClass; 3] =
        [PriorityClass::Critical, PriorityClass::Standard, PriorityClass::Preemptible];

    /// Short lowercase label for reports and traces.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            PriorityClass::Critical => "critical",
            PriorityClass::Standard => "standard",
            PriorityClass::Preemptible => "preemptible",
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_importance() {
        assert!(PriorityClass::Critical > PriorityClass::Standard);
        assert!(PriorityClass::Standard > PriorityClass::Preemptible);
        assert_eq!(
            PriorityClass::DESCENDING,
            [PriorityClass::Critical, PriorityClass::Standard, PriorityClass::Preemptible]
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PriorityClass::Critical.to_string(), "critical");
        assert_eq!(PriorityClass::Standard.as_str(), "standard");
        assert_eq!(PriorityClass::Preemptible.as_str(), "preemptible");
    }
}
