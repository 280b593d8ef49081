//! **experiments** — runs the paper's tables and figures (EXPERIMENTS.md
//! has the index), one entry of [`ENTRIES`] each, and writes their
//! artifacts.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin experiments -- <entry>… | all [--seeds N] [--scenario FILE] [--out DIR]
//! cargo run --release -p evolve-bench --bin experiments -- all > experiments_out/all_experiments.txt
//! ```
//!
//! `--seeds N` replaces each selected entry's default seed count (seeds
//! 42, 43, …); `--scenario FILE` replaces the one selected entry's
//! builtin scenario; `--out DIR` (default `experiments_out`) is where the
//! CSV/HTML files land. With more than one entry selected, each entry's
//! text follows a `===== name =====` header.
//!
//! Exit status: 0 when every entry passed, 1 when one failed or a file
//! could not be written, 2 on a usage error — an unknown entry, an
//! argument no selected entry reads, or `--scenario` for anything but
//! one entry that has a scenario.

use std::process::ExitCode;

use evolve_bench::{figures, suite, tables, BenchArgs, Ctx, Report};

/// One experiment: a paper table or figure.
struct Entry {
    /// The entry's name and the stem of the files it writes.
    name: &'static str,
    /// Seeds replicated over without `--seeds`; `None` for an entry that
    /// takes no seeds.
    seeds: Option<usize>,
    /// The builtin scenario `--scenario` replaces; `None` for an entry
    /// that has no scenario.
    scenario: Option<&'static str>,
    run: fn(&Ctx) -> Report,
}

const fn entry(
    name: &'static str,
    seeds: Option<usize>,
    scenario: Option<&'static str>,
    run: fn(&Ctx) -> Report,
) -> Entry {
    Entry { name, seeds, scenario, run }
}

const ENTRIES: &[Entry] = &[
    entry("tab1_headline", Some(5), Some("headline"), tables::tab1_headline),
    entry("tab2_convergence", Some(5), Some("headline"), tables::tab2_convergence),
    entry("tab3_sched_scale", Some(5), None, tables::tab3_sched_scale),
    entry("tab5_ablation", Some(5), Some("bottleneck_rotation"), tables::tab5_ablation),
    entry("tab6_resilience", Some(5), Some("single_diurnal"), tables::tab6_resilience),
    entry("tab7_recovery", Some(5), Some("single_diurnal"), tables::tab7_recovery),
    entry("tab8_cluster_scale", None, None, tables::tab8_cluster_scale),
    entry("fig1_timeline", Some(5), Some("single_diurnal"), figures::fig1_timeline),
    entry("fig2_step", Some(5), Some("step_response"), figures::fig2_step),
    entry("fig3_sweep", Some(5), Some("load_sweep"), figures::fig3_sweep),
    entry("fig4_utilization", Some(5), Some("headline"), figures::fig4_utilization),
    entry("fig5_flashcrowd", Some(5), Some("flash_crowd"), figures::fig5_flashcrowd),
    entry("fig6_interference", Some(5), Some("interference"), figures::fig6_interference),
    entry("fig7_faults", Some(5), Some("single_diurnal"), figures::fig7_faults),
    entry("fig8_restart", Some(1), Some("single_diurnal"), figures::fig8_restart),
    entry("capacity_probe", Some(5), Some("overload"), suite::capacity_probe),
    entry("scenario_suite", Some(3), None, suite::scenario_suite),
];

/// Parses `argv` and picks the entries to run, or says why not.
fn plan(argv: &[String]) -> Result<(BenchArgs, Vec<&'static Entry>), String> {
    let args = BenchArgs::try_parse(argv)?;
    let entries: Vec<&Entry> = if args.rest == ["all"] {
        ENTRIES.iter().collect()
    } else {
        let find = |name: &String| ENTRIES.iter().find(|e| e.name == name);
        let unknown = |name: &String| format!("unknown entry or argument `{name}`");
        args.rest
            .iter()
            .map(|name| find(name).ok_or_else(|| unknown(name)))
            .collect::<Result<_, _>>()?
    };
    match entries[..] {
        [] => return Err("no entry given".into()),
        [e] if args.scenario.is_some() && e.scenario.is_none() => {
            return Err(format!("{} has no scenario for --scenario to replace", e.name));
        }
        [_, _, ..] if args.scenario.is_some() => {
            return Err("--scenario applies to one entry at a time".into());
        }
        _ => {}
    }
    if args.seed_count.is_some() && entries.iter().all(|e| e.seeds.is_none()) {
        return Err("--seeds: the selected entries take no seeds".into());
    }
    Ok((args, entries))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, entries) = match plan(&argv) {
        Ok(plan) => plan,
        Err(msg) => {
            let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
            eprintln!(
                "error: {msg}\nusage: experiments <entry>… | all [--seeds N] [--scenario FILE] \
                 [--out DIR]\nentries: {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for entry in &entries {
        let ctx = Ctx {
            seeds: entry.seeds.map_or_else(Vec::new, |n| args.seeds(n)),
            scenario: entry.scenario.map(|name| args.spec(name)),
            from_file: args.scenario.is_some(),
        };
        if entries.len() > 1 {
            println!("===== {} =====", entry.name);
        }
        let report = (entry.run)(&ctx);
        print!("{}", report.text);
        for (name, content) in &report.files {
            let path = args.out_dir.join(name);
            match std::fs::create_dir_all(&args.out_dir)
                .and_then(|()| std::fs::write(&path, content))
            {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(err) => {
                    eprintln!("could not write {}: {err}", path.display());
                    ok = false;
                }
            }
        }
        if let Some(why) = &report.failure {
            eprintln!("{} failed:\n{why}", entry.name);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_of(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        plan(&argv).map(|(_, entries)| entries.iter().map(|e| e.name).collect())
    }

    const OVERLOAD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/overload.toml");

    #[test]
    fn plan_selects_named_entries_or_all() {
        assert_eq!(
            plan_of(&["fig2_step", "tab1_headline"]).unwrap(),
            ["fig2_step", "tab1_headline"]
        );
        assert_eq!(plan_of(&["all", "--seeds", "2"]).unwrap().len(), ENTRIES.len());
        assert_eq!(
            plan_of(&["capacity_probe", "--scenario", OVERLOAD]).unwrap(),
            ["capacity_probe"]
        );
        assert!(plan_of(&[]).is_err());
    }

    #[test]
    fn scenario_for_an_entry_without_one_is_a_usage_error() {
        for name in ["tab3_sched_scale", "tab8_cluster_scale", "scenario_suite"] {
            let err = plan_of(&[name, "--scenario", OVERLOAD]).unwrap_err();
            assert!(err.contains("no scenario"), "{name}: {err}");
        }
    }

    #[test]
    fn scenario_with_several_entries_is_a_usage_error() {
        assert!(plan_of(&["tab1_headline", "fig1_timeline", "--scenario", OVERLOAD]).is_err());
        assert!(plan_of(&["all", "--scenario", OVERLOAD]).is_err());
    }

    #[test]
    fn unknown_entry_is_a_usage_error() {
        assert!(plan_of(&["tab4_control"]).unwrap_err().contains("tab4_control"));
        assert!(plan_of(&["all", "tab1_headline"]).is_err());
    }

    #[test]
    fn argument_no_entry_reads_is_a_usage_error() {
        // A bare count, an unknown flag, and a seed count for entries
        // that take no seeds.
        assert!(plan_of(&["tab1_headline", "0"]).unwrap_err().contains("`0`"));
        assert!(plan_of(&["tab1_headline", "3"]).is_err());
        assert!(plan_of(&["scenario_suite", "--dir", "scenarios"]).is_err());
        assert!(plan_of(&["tab8_cluster_scale", "--seeds", "2"]).is_err());
        assert!(plan_of(&["tab8_cluster_scale", "tab3_sched_scale", "--seeds", "2"]).is_ok());
    }

    #[test]
    fn entry_names_are_unique() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRIES.len());
    }

    /// Every committed CSV/HTML artifact belongs to exactly one entry
    /// (its stem is the entry's name or starts with it), and every entry
    /// has at least one: no orphaned and no missing outputs.
    #[test]
    fn committed_artifacts_and_entries_match() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_out");
        let mut stems = Vec::new();
        for file in std::fs::read_dir(dir).unwrap() {
            let path = file.unwrap().path();
            if path.extension().is_some_and(|e| e == "csv" || e == "html") {
                stems.push(path.file_stem().unwrap().to_string_lossy().into_owned());
            }
        }
        for stem in &stems {
            let owners: Vec<&str> =
                ENTRIES.iter().map(|e| e.name).filter(|name| stem.starts_with(name)).collect();
            assert_eq!(owners.len(), 1, "experiments_out/{stem}.* is written by {owners:?}");
        }
        for e in ENTRIES {
            assert!(stems.iter().any(|s| s.starts_with(e.name)), "{} has no artifact", e.name);
        }
    }

    #[test]
    fn experiments_doc_names_every_entry() {
        let doc = include_str!("../../../../EXPERIMENTS.md");
        let missing: Vec<&str> = ENTRIES
            .iter()
            .map(|e| e.name)
            .filter(|name| !doc.contains(&format!("--bin experiments -- {name}")))
            .collect();
        assert!(missing.is_empty(), "EXPERIMENTS.md never shows `experiments -- {missing:?}`");
    }
}
