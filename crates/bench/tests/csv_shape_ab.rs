//! A/B shape validation for the paper artifacts after the sampling
//! overhaul: the batched ziggurat/windowed arrival path must produce
//! CSV output with exactly the same *shape* as the legacy Box–Muller /
//! thinning path — same headers, same column counts, same row counts,
//! parseable finite numbers — even though the sampled values differ.
//!
//! This is the cheap guard that none of the tab*/fig* binaries silently
//! lose a column or a series when `legacy_sampling` flips: both modes
//! run the same short headline configuration the golden tests pin.

use evolve::prelude::*;
use evolve_bench::{headline_headers, headline_row};
use evolve_types::SimDuration;

/// The golden short-horizon headline mix, in either sampling mode.
fn run(legacy: bool) -> RunOutcome {
    let mut spec = ScenarioSpec::headline(0.5);
    spec.horizon = SimDuration::from_mins(5);
    spec.cluster.nodes = 8;
    ExperimentRunner::new(
        RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(42).legacy_sampling(legacy).build(),
    )
    .run()
}

fn assert_numeric_cells(label: &str, row: &[String], skip: &[usize]) {
    for (i, cell) in row.iter().enumerate() {
        if skip.contains(&i) {
            continue;
        }
        let v: f64 =
            cell.parse().unwrap_or_else(|_| panic!("{label}: column {i} not numeric: {cell:?}"));
        assert!(v.is_finite(), "{label}: column {i} not finite: {cell:?}");
    }
}

/// Checks a `wide_csv` dump: header intact, every row has the header's
/// column count, and every present cell parses to a finite number.
fn assert_wide_csv_shape(label: &str, csv: &str, names: &[&str]) -> usize {
    let mut lines = csv.lines();
    let header = lines.next().unwrap_or_else(|| panic!("{label}: empty CSV"));
    assert_eq!(header, format!("seconds,{}", names.join(",")), "{label}: header drifted");
    let cols = names.len() + 1;
    let mut rows = 0usize;
    for (lineno, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), cols, "{label}: row {lineno} has {} cells", cells.len());
        for (i, cell) in cells.iter().enumerate() {
            if cell.is_empty() {
                continue; // series without a sample at this index
            }
            let v: f64 = cell
                .parse()
                .unwrap_or_else(|_| panic!("{label}: row {lineno} col {i} not numeric: {cell:?}"));
            assert!(v.is_finite(), "{label}: row {lineno} col {i} not finite");
        }
        rows += 1;
    }
    assert!(rows > 0, "{label}: no data rows");
    rows
}

#[test]
fn tab_and_fig_csv_shapes_match_between_sampling_modes() {
    let batched = run(false);
    let legacy = run(true);

    // -- tab1-style headline row ------------------------------------
    let headers = headline_headers();
    let row_b = headline_row(&batched);
    let row_l = headline_row(&legacy);
    assert_eq!(row_b.len(), headers.len(), "batched headline row width");
    assert_eq!(row_l.len(), headers.len(), "legacy headline row width");
    // Column 0 is the policy name, column 6 is "hits/total".
    assert_numeric_cells("batched tab row", &row_b, &[0, 6]);
    assert_numeric_cells("legacy tab row", &row_l, &[0, 6]);
    assert_eq!(row_b[0], row_l[0], "policy label must not depend on sampling mode");
    for (label, row) in [("batched", &row_b), ("legacy", &row_l)] {
        let (hits, total) = row[6]
            .split_once('/')
            .unwrap_or_else(|| panic!("{label}: deadlines cell not hits/total: {:?}", row[6]));
        let hits: u64 = hits.parse().expect("hits numeric");
        let total: u64 = total.parse().expect("total numeric");
        assert!(hits <= total, "{label}: deadline hits exceed total");
    }

    // -- fig-style wide timeline CSV --------------------------------
    // Both modes must expose the same recorded series (same apps, same
    // metrics) — a series appearing in only one mode means an artifact
    // binary would emit different columns depending on the flag.
    let mut names_b: Vec<&str> = batched.registry.series_names().collect();
    let mut names_l: Vec<&str> = legacy.registry.series_names().collect();
    names_b.sort_unstable();
    names_l.sort_unstable();
    assert_eq!(names_b, names_l, "recorded series differ between sampling modes");

    let csv_b = batched.registry.wide_csv(&names_b);
    let csv_l = legacy.registry.wide_csv(&names_l);
    let rows_b = assert_wide_csv_shape("batched wide CSV", &csv_b, &names_b);
    let rows_l = assert_wide_csv_shape("legacy wide CSV", &csv_l, &names_l);
    // Control windows are time-cadenced, so a fixed horizon yields the
    // same number of rows regardless of how arrivals were sampled.
    assert_eq!(rows_b, rows_l, "row counts differ between sampling modes");
}
