//! How `evolve-core` applies a declarative scenario: a builtin name or a
//! `scenarios/*.toml` file configures the run's workload, cluster shape
//! and arbiter.

use std::path::PathBuf;

use evolve_core::{ManagerKind, RunConfig};
use evolve_workload::ScenarioSpec;

fn scenario_file(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
        .join(format!("{name}.toml"))
}

/// A builtin resolved by name configures the run's cluster shape and
/// arbiter through `RunConfig::from_spec`.
#[test]
fn scenario_named_applies_cluster_and_arbiter() {
    let spec = ScenarioSpec::builtin("overload").expect("builtin resolves");
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve).build();
    assert_eq!(config.scenario.name, "overload-1.00");
    assert_eq!(config.nodes, 4);
    assert!(config.arbiter.is_some(), "overload spec carries the arbiter");

    let err = ScenarioSpec::builtin("ghost").unwrap_err();
    assert!(err.to_string().contains("ghost"));
}

/// A scenario file loads through the same validated path as the suite.
#[test]
fn scenario_file_loads_checked_in_specs() {
    let spec = ScenarioSpec::from_file(scenario_file("interference")).expect("checked-in file");
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve).build();
    assert_eq!(config.nodes, 10);
    assert!(config.scenario.name.starts_with("interference"));
}
