//! Integration tests for the declarative scenario layer: every checked-in
//! `scenarios/*.toml` file is in canonical form and is a builtin, the two
//! parametric builtins reproduce the emitters they replaced, and malformed
//! input fails with the right typed [`ScenarioError`] — never a panic.

use std::path::PathBuf;

use evolve_types::SimDuration;
use evolve_workload::{ScenarioError, ScenarioSpec, BUILTINS};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

/// Every `scenarios/*.toml`, as `(file stem, text)`, sorted by stem.
fn scenario_files() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(scenarios_dir())
        .expect("read scenarios/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .map(|path| {
            let stem = path.file_stem().expect("file stem").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("read scenario file");
            (stem, text)
        })
        .collect();
    files.sort();
    files
}

/// Every checked-in file parses, and `to_toml()` re-emits it byte for
/// byte: a file is written in the one canonical form the spec layer
/// writes.
#[test]
fn scenarios_are_canonical() {
    for (stem, text) in scenario_files() {
        let spec = ScenarioSpec::from_toml_str(&text).unwrap_or_else(|err| panic!("{stem}: {err}"));
        assert_eq!(spec.to_toml(), text, "{stem}.toml is not in canonical form");
    }
}

/// [`BUILTINS`] lists exactly the files in `scenarios/`.
#[test]
fn builtin_table_matches_the_directory() {
    let mut names: Vec<&str> = BUILTINS.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    let stems: Vec<String> = scenario_files().into_iter().map(|(stem, _)| stem).collect();
    assert_eq!(names, stems);
}

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `headline(scale)` and `cluster_scale(nodes, apps, horizon)` emit what
/// the Rust emitters they replaced emitted: the FNV-1a digests of
/// `to_toml()` below were taken from those emitters and are not to be
/// regenerated.
#[test]
fn parametric_builtins_reproduce_the_emitters() {
    for (scale, want) in [
        (0.2, 0xdab6_f5d2_584e_d00e_u64),
        (0.5, 0x2536_3a3e_ffa1_00f8),
        (1.0, 0x5ff4_dd64_3614_018f),
        (2.0, 0xa9da_228e_1c99_c6f3),
    ] {
        let got = fnv1a(&ScenarioSpec::headline(scale).to_toml());
        assert_eq!(got, want, "headline({scale}): {got:016x}");
    }
    for (nodes, apps, secs, want) in [
        (12, 4, 60, 0x7bc4_9a31_7bb0_dace_u64),
        (30, 4, 300, 0x568f_a980_ff43_4493),
        (60, 8, 360, 0x8214_74ed_e658_6a2b),
        (100, 4, 600, 0xbcf4_f103_484b_4ec8),
        (250, 40, 600, 0x2f00_d364_9d72_e96a),
        (1_000, 40, 600, 0x87fd_8dea_cf0b_1d8c),
        (5_000, 40, 300, 0x5988_7d05_673b_8e0b),
    ] {
        let spec = ScenarioSpec::cluster_scale(nodes, apps, SimDuration::from_secs(secs));
        let got = fnv1a(&spec.to_toml());
        assert_eq!(got, want, "cluster_scale({nodes}, {apps}, {secs} s): {got:016x}");
    }
}

#[test]
fn syntax_errors_carry_the_line() {
    let err = ScenarioSpec::from_toml_str("name = \"x\"\n= broken\n").unwrap_err();
    match err {
        ScenarioError::Syntax { line, .. } => assert_eq!(line, 2),
        other => panic!("expected Syntax, got {other}"),
    }
}

#[test]
fn unknown_fields_are_rejected_with_table_context() {
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\nbogus = 1\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!(table, "scenario");
            assert_eq!(field, "bogus");
        }
        other => panic!("expected UnknownField, got {other}"),
    }
}

#[test]
fn missing_required_fields_are_typed() {
    // No `name`.
    let toml = "description = \"d\"\nhorizon_secs = 60\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::MissingField { table, field } => {
            assert_eq!(table, "scenario");
            assert_eq!(field, "name");
        }
        other => panic!("expected MissingField, got {other}"),
    }
}

/// `single_diurnal` (6 nodes, 1 app, 900 s) with one `[[fault]]` table
/// appended; returns the document and the 1-based line of `key`.
fn with_fault(body: &str, key: &str) -> (String, usize) {
    let toml = ScenarioSpec::builtin("single_diurnal").expect("builtin").to_toml();
    let toml = format!("{toml}\n[[fault]]\n{body}");
    let line = toml.lines().position(|l| l.starts_with(key)).expect("key present") + 1;
    (toml, line)
}

#[test]
fn invalid_values_are_typed() {
    // A valid one-service document with a `priority` line put in; each
    // case is (document, offending field, its 1-based line — `None` for a
    // value that is well-formed but can never run).
    let with_priority = |value: &str| {
        let toml = ScenarioSpec::builtin("single_diurnal").expect("builtin").to_toml();
        let toml =
            toml.replacen("replicas = 2\n", &format!("replicas = 2\npriority = {value}\n"), 1);
        let line = toml.lines().position(|l| l.starts_with("priority")).expect("inserted") + 1;
        (toml, "service[0].priority", Some(line))
    };
    let cases = [
        (
            "name = \"x\"\ndescription = \"d\"\nhorizon_secs = -5\n".to_string(),
            "scenario.horizon_secs",
            Some(3),
        ),
        with_priority("\"urgent\""),
        with_priority("3"),
        // A fault starting at the horizon never fires; app 1 of 1 does not exist.
        (
            with_fault("kind = \"control_stall\"\nat_secs = 900.0\nduration_secs = 5.0\n", "kind")
                .0,
            "fault[0].at_secs",
            None,
        ),
        (
            with_fault(
                "kind = \"scrape_blackout\"\nat_secs = 10.0\napp = 1\nduration_secs = 5.0\n",
                "kind",
            )
            .0,
            "fault[0].app",
            None,
        ),
    ];
    for (toml, want_field, want_line) in cases {
        match (ScenarioSpec::from_toml_str(&toml).unwrap_err(), want_line) {
            (ScenarioError::InvalidValue { line, field, .. }, Some(want_line)) => {
                assert_eq!((field.as_str(), line), (want_field, want_line), "{toml}");
            }
            (ScenarioError::Infeasible { field, .. }, None) => assert_eq!(field, want_field),
            (other, _) => panic!("expected `{want_field}` to be rejected, got {other}"),
        }
    }
}

/// What the chaos reproducer's own reader used to reject, through the one
/// reader there is now: every malformed `[[fault]]` or `[repro]` table is
/// a typed error naming the field, with the line wherever there is one.
#[test]
fn malformed_faults_are_typed_with_the_line() {
    let invalid = |body: &str, key: &str, want_field: &str| {
        let (toml, want_line) = with_fault(body, key);
        match ScenarioSpec::from_toml_str(&toml).unwrap_err() {
            ScenarioError::InvalidValue { line, field, .. } => {
                assert_eq!((field.as_str(), line), (want_field, want_line), "{body}");
            }
            other => panic!("expected InvalidValue for `{want_field}`, got {other}"),
        }
    };
    // Unknown kind: the line is the `[[fault]]` header's.
    invalid("kind = \"warp_core_breach\"\nat_secs = 5.0\n", "[[fault]]", "fault[0].kind");
    // Wrong type.
    invalid(
        "kind = \"node_flap\"\nat_secs = 5.0\nnode = 0\ncycles = \"two\"\nperiod_secs = 4.0\n",
        "cycles",
        "fault[0].cycles",
    );
    invalid("kind = \"node_crash\"\nat_secs = 5.0\nnode = -1\n", "node =", "fault[0].node");
    // Out of range, by `FaultKind`'s own rule.
    invalid(
        "kind = \"actuation_partial\"\nat_secs = 5.0\nduration_secs = 9.0\nfraction = 1.5\n",
        "fraction",
        "fault[0].fraction",
    );
    invalid(
        "kind = \"metric_noise\"\nat_secs = 5.0\nduration_secs = 9.0\ncv = -0.25\n",
        "cv",
        "fault[0].cv",
    );
    invalid(
        "kind = \"node_flap\"\nat_secs = 5.0\nnode = 0\ncycles = 0\nperiod_secs = 4.0\n",
        "cycles",
        "fault[0].cycles",
    );

    let error_of =
        |body: &str| ScenarioSpec::from_toml_str(&with_fault(body, "kind").0).unwrap_err();
    // A missing field (a file cut off inside its last table).
    match error_of("kind = \"actuation_delay\"\nat_secs = 5.0\nduration_secs = 9.0\n") {
        ScenarioError::MissingField { table, field } => {
            assert_eq!((table.as_str(), field.as_str()), ("fault[0]", "lag_secs"));
        }
        other => panic!("expected MissingField, got {other}"),
    }
    // A field the kind does not have.
    match error_of("kind = \"controller_crash\"\nat_secs = 5.0\nduration_secs = 9.0\n") {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!((table.as_str(), field.as_str()), ("fault[0]", "duration_secs"));
        }
        other => panic!("expected UnknownField, got {other}"),
    }
    // `[repro]` needs both of its fields and has no others.
    let stall = "kind = \"control_stall\"\nat_secs = 5.0\nduration_secs = 9.0\n";
    match error_of(&format!("{stall}\n[repro]\nviolation = \"gang_atomicity\"\n")) {
        ScenarioError::MissingField { table, field } => {
            assert_eq!((table.as_str(), field.as_str()), ("repro", "seed"));
        }
        other => panic!("expected MissingField, got {other}"),
    }
    match error_of(&format!("{stall}\n[repro]\nseed = 7\nviolation = \"x\"\nprofile = \"p\"\n")) {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!((table.as_str(), field.as_str()), ("repro", "profile"));
        }
        other => panic!("expected UnknownField, got {other}"),
    }
}

#[test]
fn empty_workload_is_infeasible_not_a_panic() {
    // Structurally fine, but declares nothing to run.
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\n\n[cluster]\nnodes = 2\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::Infeasible { field, .. } => assert_eq!(field, "scenario"),
        other => panic!("expected Infeasible, got {other}"),
    }
}

#[test]
fn oversized_allocation_is_infeasible() {
    // A valid builtin, then one service's per-pod allocation inflated
    // past any node: the semantic check must name the offending field.
    let mut spec = ScenarioSpec::builtin("single_diurnal").expect("builtin");
    spec.services[0].alloc = evolve_types::ResourceVec::new(1e9, 1e9, 1e9, 1e9);
    match spec.validate().unwrap_err() {
        ScenarioError::Infeasible { field, .. } => assert!(field.contains("alloc"), "{field}"),
        other => panic!("expected Infeasible, got {other}"),
    }
}

#[test]
fn unknown_builtin_name_is_typed() {
    match ScenarioSpec::builtin("nope").unwrap_err() {
        ScenarioError::UnknownScenario { name } => assert_eq!(name, "nope"),
        other => panic!("expected UnknownScenario, got {other}"),
    }
}

/// Truncating a valid document at every character boundary must produce
/// `Err`, never a panic (the parser sees arbitrary prefixes from editors
/// and partial writes).
#[test]
fn truncated_documents_never_panic() {
    let full = ScenarioSpec::headline(1.0).to_toml();
    for end in 0..full.len() {
        if !full.is_char_boundary(end) {
            continue;
        }
        // Any prefix is allowed to parse (a shorter valid doc) or fail
        // with a typed error; what it must not do is panic.
        let _ = ScenarioSpec::from_toml_str(&full[..end]);
    }
}

/// `from_file` on a missing path reports `Io` with the path embedded.
#[test]
fn missing_file_is_an_io_error() {
    match ScenarioSpec::from_file("/nonexistent/evolve/spec.toml").unwrap_err() {
        ScenarioError::Io { path, .. } => assert!(path.contains("nonexistent")),
        other => panic!("expected Io, got {other}"),
    }
}
