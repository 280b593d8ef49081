//! A string-keyed metric registry for experiment export.
//!
//! Experiment runners record named series ("app-0/p99_ms",
//! "cluster/used_cpu"), then dump them as CSV for the figure scripts. This is the simulated stand-in for a Prometheus server.
//!
//! Hot callers (the per-tick recording loop) intern names once via
//! [`MetricRegistry::key`] and record through the returned
//! [`MetricKey`] — a dense index into a `Vec<TimeSeries>`, so the
//! steady-state path is an array index instead of a string-keyed map
//! lookup. Name-based lookup remains for reads; recording always goes
//! through an interned key.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use evolve_types::SimTime;

use crate::series::TimeSeries;

/// Samples each series retains (the oldest go first beyond this).
const SERIES_CAPACITY: usize = 1_000_000;

/// A typed, dense handle to an interned series name.
///
/// Obtained from [`MetricRegistry::key`]; only valid for the registry
/// that produced it. Recording through a key is an array index, no
/// string hashing or comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricKey(u32);

impl MetricKey {
    /// The raw dense index.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Named time series.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::MetricRegistry;
/// use evolve_types::SimTime;
///
/// let mut reg = MetricRegistry::new();
/// // Intern once, record through the typed key.
/// let key = reg.key("svc/p99_ms");
/// reg.record_key(key, SimTime::from_secs(1), 42.0);
/// reg.record_key(key, SimTime::from_secs(2), 40.0);
/// assert_eq!(reg.series_by_key(key).unwrap().len(), 2);
/// assert_eq!(reg.series("svc/p99_ms").unwrap().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct MetricRegistry {
    /// Name → dense id; a sorted map so name listings stay ordered.
    ids: BTreeMap<String, u32>,
    /// Dense storage, indexed by [`MetricKey`].
    series: Vec<TimeSeries>,
    /// Samples recorded through the dense-key fast path (perf accounting:
    /// each is a string hash/compare + potential allocation avoided).
    fast_records: u64,
    /// Samples that arrived with a key this registry never issued —
    /// skipped and counted instead of panicking.
    dropped_records: u64,
}

impl MetricRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Interns a series name, creating an empty series on first use, and
    /// returns its typed key for [`MetricRegistry::record_key`].
    pub fn key(&mut self, name: &str) -> MetricKey {
        if let Some(id) = self.ids.get(name) {
            return MetricKey(*id);
        }
        let id = u32::try_from(self.series.len()).expect("more than u32::MAX series");
        self.series.push(TimeSeries::new(SERIES_CAPACITY));
        self.ids.insert(name.to_owned(), id);
        MetricKey(id)
    }

    /// Appends a sample through an interned key: a bounds-checked array
    /// index, no string lookup. A key this registry never issued is
    /// skipped and counted in [`MetricRegistry::dropped_records`] rather
    /// than panicking.
    pub fn record_key(&mut self, key: MetricKey, at: SimTime, value: f64) {
        match self.series.get_mut(key.0 as usize) {
            Some(series) => {
                self.fast_records += 1;
                series.push(at, value);
            }
            None => self.dropped_records += 1,
        }
    }

    /// Looks up a series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.ids.get(name).map(|id| &self.series[*id as usize])
    }

    /// Looks up a series by interned key.
    #[must_use]
    pub fn series_by_key(&self, key: MetricKey) -> Option<&TimeSeries> {
        self.series.get(key.0 as usize)
    }

    /// Samples recorded through the dense-key fast path — the number of
    /// string-keyed lookups the interning layer avoided.
    #[must_use]
    pub fn fast_path_records(&self) -> u64 {
        self.fast_records
    }

    /// Samples skipped because their key was not issued by this registry
    /// (the skip-and-count alternative to panicking on a foreign key).
    #[must_use]
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// All series names in sorted order.
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.ids.keys().map(String::as_str)
    }

    /// Renders several series as a wide CSV keyed by the first series'
    /// timestamps (values matched by position; series produced by the same
    /// scrape loop align exactly).
    #[must_use]
    pub fn wide_csv(&self, names: &[&str]) -> String {
        let mut out = String::from("seconds");
        for n in names {
            out.push(',');
            out.push_str(n);
        }
        out.push('\n');
        let Some(first) = names.first().and_then(|n| self.series(n)) else {
            return out;
        };
        let columns: Vec<Option<&TimeSeries>> = names.iter().map(|n| self.series(n)).collect();
        out.reserve(first.len() * (8 + 16 * columns.len()));
        for (i, sample) in first.iter().enumerate() {
            let _ = write!(out, "{:.6}", sample.at.as_secs_f64());
            for col in &columns {
                match col.and_then(|s| s.get(i)) {
                    Some(s) => {
                        let _ = write!(out, ",{}", s.value);
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut r = MetricRegistry::new();
        let a = r.key("a");
        r.record_key(a, SimTime::from_secs(1), 1.0);
        r.record_key(a, SimTime::from_secs(2), 2.0);
        let b = r.key("b");
        r.record_key(b, SimTime::from_secs(1), 9.0);
        assert_eq!(r.series("a").unwrap().len(), 2);
        assert_eq!(r.series("b").unwrap().len(), 1);
        assert!(r.series("missing").is_none());
        assert_eq!(r.series_names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn interned_keys_are_stable_and_fast_path_counts() {
        let mut r = MetricRegistry::new();
        let a = r.key("a");
        let b = r.key("b");
        assert_ne!(a, b);
        assert_eq!(r.key("a"), a);
        r.record_key(a, SimTime::from_secs(1), 1.0);
        r.record_key(b, SimTime::from_secs(1), 2.0);
        r.record_key(a, SimTime::from_secs(2), 3.0);
        assert_eq!(r.series("a").unwrap().len(), 2);
        assert_eq!(r.series_by_key(b).unwrap().len(), 1);
        assert_eq!(r.fast_path_records(), 3);
    }

    #[test]
    fn foreign_key_is_skipped_and_counted() {
        let mut issuing = MetricRegistry::new();
        for i in 0..5 {
            let _ = issuing.key(&format!("s{i}"));
        }
        let foreign = issuing.key("s4");
        let mut r = MetricRegistry::new();
        let own = r.key("only");
        r.record_key(foreign, SimTime::from_secs(1), 1.0);
        r.record_key(own, SimTime::from_secs(1), 2.0);
        assert_eq!(r.dropped_records(), 1);
        assert_eq!(r.fast_path_records(), 1);
        assert_eq!(r.series("only").unwrap().len(), 1);
    }

    #[test]
    fn names_stay_sorted_regardless_of_intern_order() {
        let mut r = MetricRegistry::new();
        let _ = r.key("zeta");
        let _ = r.key("alpha");
        let mid = r.key("mid");
        r.record_key(mid, SimTime::ZERO, 0.0);
        assert_eq!(r.series_names().collect::<Vec<_>>(), vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn wide_csv_aligns_columns() {
        let mut r = MetricRegistry::new();
        let p = r.key("p");
        let q = r.key("q");
        for i in 0..3u64 {
            r.record_key(p, SimTime::from_secs(i), i as f64);
            r.record_key(q, SimTime::from_secs(i), 10.0 * i as f64);
        }
        let csv = r.wide_csv(&["p", "q"]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "seconds,p,q");
        assert_eq!(lines[2], "1.000000,1,10");
    }

    #[test]
    fn wide_csv_with_missing_series_is_header_only() {
        let r = MetricRegistry::new();
        assert_eq!(r.wide_csv(&["nope"]), "seconds,nope\n");
    }
}
