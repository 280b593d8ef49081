//! Integration tests for the declarative scenario layer: the checked-in
//! `scenarios/*.toml` files are pinned byte-identical to what the builtin
//! spec emitters produce, the parser round-trips them, and malformed
//! input fails with the right typed [`ScenarioError`] — never a panic.
//!
//! Regenerate the checked-in files after changing a builtin emitter:
//!
//! ```text
//! EVOLVE_BLESS_SCENARIOS=1 cargo test -p evolve-workload --test spec_tests
//! ```

use std::path::PathBuf;

use evolve_workload::{ScenarioError, ScenarioSpec, BUILTIN_NAMES};

fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

fn blessing() -> bool {
    std::env::var("EVOLVE_BLESS_SCENARIOS").is_ok_and(|v| !v.trim().is_empty() && v != "0")
}

/// Every builtin spec has a checked-in TOML file whose bytes equal what
/// `to_toml` emits today. With `EVOLVE_BLESS_SCENARIOS=1` the files are
/// (re)written instead of compared.
#[test]
fn checked_in_scenarios_are_blessed_builtin_emissions() {
    let dir = scenarios_dir();
    if blessing() {
        std::fs::create_dir_all(&dir).expect("create scenarios/");
    }
    for name in BUILTIN_NAMES {
        let spec = ScenarioSpec::builtin(name).expect("builtin");
        let emitted = spec.to_toml();
        let path = dir.join(format!("{name}.toml"));
        if blessing() {
            std::fs::write(&path, &emitted).expect("write scenario file");
            continue;
        }
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            panic!(
                "missing {} ({err}) — run EVOLVE_BLESS_SCENARIOS=1 cargo test -p \
                 evolve-workload --test spec_tests",
                path.display()
            )
        });
        assert_eq!(
            on_disk,
            emitted,
            "{} drifted from the builtin emitter — re-bless or fix the emitter",
            path.display()
        );
    }
}

/// Parsing a checked-in file reproduces the builtin spec exactly, and the
/// parsed spec builds the same scenario the constructor does.
#[test]
fn checked_in_scenarios_parse_back_to_the_builtin_spec() {
    if blessing() {
        return;
    }
    for name in BUILTIN_NAMES {
        let spec = ScenarioSpec::builtin(name).expect("builtin");
        let path = scenarios_dir().join(format!("{name}.toml"));
        let parsed = ScenarioSpec::from_file(&path)
            .unwrap_or_else(|err| panic!("{}: {err}", path.display()));
        assert_eq!(parsed, spec, "{name}: file spec != builtin spec");
        let a = parsed.build();
        let b = spec.build();
        assert_eq!(a.name, b.name);
        assert_eq!(a.horizon, b.horizon);
        assert_eq!(a.mix.len(), b.mix.len());
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
