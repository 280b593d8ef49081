//! **Golden-fixture diff shape.** Decodes two full dumps of a `golden_run`
//! run and says how far apart they are, which is what a re-bless has to
//! report (DESIGN.md decision 9): how many floats changed and by what
//! relative difference (p50 / p90 / p99 / max), the earliest changed float
//! of any size with its series and window (so a one-ulp drift is named, not
//! only counted), every float more than 1e-9 apart with the window it sits
//! in, and every changed integer traced to the first window in which its
//! app's series diverged by more than that.
//!
//! The committed fixtures hold a digest per window, not the samples, so
//! both sides are regenerated: every `golden_run` test writes its run's
//! dump to `target/tmp/golden/<fixture>.dump`. Run the test on a clone of
//! the parent commit and on the change, then diff the two dumps:
//!
//! ```text
//! git clone --quiet . /tmp/parent && git -C /tmp/parent checkout --quiet HEAD~1
//! (cd /tmp/parent && cargo test -p evolve-core --test golden_run)
//! cargo test -p evolve-core --test golden_run     # or EVOLVE_BLESS=1 for a re-bless
//! cargo run --release -p evolve-bench --bin golden_diff -- \
//!     /tmp/parent/target/tmp/golden/golden_headline.dump target/tmp/golden/golden_headline.dump
//! ```
//!
//! Exits non-zero when the two files do not have the same lines in the same
//! order (a series appeared, vanished or changed length): that is a
//! structural change and needs reading, not a summary.

use std::fmt::Write;
use std::process::ExitCode;

/// Relative differences up to this are rounding; beyond it something
/// discrete happened upstream.
const ROUNDING: f64 = 1e-9;

/// A token that differs between the two files.
enum Change {
    Float { before: f64, after: f64 },
    Integer { before: String, after: String },
}

/// `name=value` or a bare value.
fn value(token: &str) -> &str {
    token.split_once('=').map_or(token, |(_, v)| v)
}

/// The dump writes every float as the 16 hex digits of its bits.
fn float(token: &str) -> Option<f64> {
    let v = value(token);
    (v.len() == 16).then(|| u64::from_str_radix(v, 16).ok().map(f64::from_bits)).flatten()
}

fn relative(before: f64, after: f64) -> f64 {
    let scale = before.abs().max(after.abs());
    if scale > 0.0 {
        (before - after).abs() / scale
    } else {
        0.0
    }
}

/// Where a changed token sits: the series (or header line) it belongs to
/// and, for a sample, its window time.
struct Site {
    what: String,
    at: Option<f64>,
    change: Change,
}

fn diff(before: &str, after: &str) -> Option<(usize, Vec<Site>)> {
    let (a, b): (Vec<&str>, Vec<&str>) = (before.lines().collect(), after.lines().collect());
    if a.len() != b.len() {
        eprintln!("line counts differ: {} vs {}", a.len(), b.len());
        return None;
    }
    let (mut floats, mut sites, mut series) = (0usize, Vec::new(), String::new());
    for (x, y) in a.iter().zip(&b) {
        let (xt, yt): (Vec<&str>, Vec<&str>) =
            (x.split_whitespace().collect(), y.split_whitespace().collect());
        // A header line starts with its keyword, a sample with its time.
        if xt.len() != yt.len() || xt.first() != yt.first() {
            eprintln!("lines do not correspond:\n  - {x}\n  + {y}");
            return None;
        }
        let sample = x.starts_with("  ");
        if xt.first() == Some(&"series") {
            series = xt[1].to_owned();
        }
        for (p, q) in xt.iter().zip(&yt) {
            floats += usize::from(float(p).is_some());
            if p == q {
                continue;
            }
            let change = match (float(p), float(q)) {
                (Some(before), Some(after)) => Change::Float { before, after },
                _ => Change::Integer { before: (*p).to_owned(), after: (*q).to_owned() },
            };
            let (what, at) = if sample {
                (series.clone(), float(xt[0]))
            } else {
                (xt[..2.min(xt.len())].join(" "), None)
            };
            sites.push(Site { what, at, change });
        }
    }
    Some((floats, sites))
}

/// `t=<window>` for a sample, `whole run` for a header float.
fn when(at: f64) -> String {
    if at.is_finite() {
        format!("t={at}")
    } else {
        "whole run".to_owned()
    }
}

/// The report on `sites`, the changes out of `floats` floats of dump `name`.
fn report(name: &str, floats: usize, sites: &[Site]) -> String {
    let mut out = String::new();
    let mut rel: Vec<f64> = sites
        .iter()
        .filter_map(|s| match s.change {
            Change::Float { before, after } => Some(relative(before, after)),
            Change::Integer { .. } => None,
        })
        .collect();
    rel.sort_by(f64::total_cmp);
    let q = |p: f64| rel.get(((rel.len() as f64 * p) as usize).min(rel.len().saturating_sub(1)));
    let beyond = rel.iter().filter(|&&d| d > ROUNDING).count();
    let _ = write!(out, "{name}: {} of {floats} floats changed", rel.len());
    if let (Some(p50), Some(p90), Some(p99), Some(max)) = (q(0.5), q(0.9), q(0.99), rel.last()) {
        let _ = write!(
            out,
            ": p50 {p50:.1e}  p90 {p90:.1e}  p99 {p99:.1e}  max {max:.1e}; {beyond} above 1e-9"
        );
    }
    let _ = writeln!(out);
    // The earliest changed float whatever its size; of one window's, the
    // first in dump order.
    let earliest = sites
        .iter()
        .filter_map(|s| match s.change {
            Change::Float { before, after } => {
                Some((s.at.unwrap_or(f64::INFINITY), s, before, after))
            }
            Change::Integer { .. } => None,
        })
        .min_by(|x, y| x.0.total_cmp(&y.0));
    if let Some((at, site, before, after)) = earliest {
        let d = relative(before, after);
        let _ = writeln!(
            out,
            "  earliest:   {:>10}  {:<32} {before} -> {after}  ({d:.1e})",
            when(at),
            site.what
        );
    }
    // Everything beyond rounding, earliest window first.
    let mut discrete: Vec<(f64, &Site)> = sites
        .iter()
        .filter_map(|s| match s.change {
            Change::Float { before, after } if relative(before, after) > ROUNDING => {
                Some((s.at.unwrap_or(f64::INFINITY), s))
            }
            _ => None,
        })
        .collect();
    discrete.sort_by(|x, y| x.0.total_cmp(&y.0));
    for (at, site) in &discrete {
        if let Change::Float { before, after } = site.change {
            let d = relative(before, after);
            let _ = writeln!(
                out,
                "  above 1e-9: {:>10}  {:<32} {before} -> {after}  ({d:.1e})",
                when(*at),
                site.what
            );
        }
    }
    let mut integers = 0;
    for site in sites {
        let Change::Integer { before, after } = &site.change else {
            continue;
        };
        integers += 1;
        // An `app N …` line answers to its own series, anything else to all.
        let scope = site
            .what
            .strip_prefix("app ")
            .map_or_else(String::new, |n| format!("app{}/", n.trim()));
        let first = discrete.iter().find(|(_, s)| s.what.starts_with(&scope) && s.at.is_some());
        let traced = first.map_or_else(
            || "no series diverged beyond rounding".to_owned(),
            |(at, s)| format!("first diverging window t={at} in {}", s.what),
        );
        let when = site.at.map_or_else(String::new, |t| format!(" t={t}"));
        let _ = writeln!(out, "  integer: {}{when}  {before} -> {after}  ({traced})", site.what);
    }
    if integers == 0 {
        let _ = writeln!(out, "  no integer changed");
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [before, after] = args.as_slice() else {
        eprintln!("usage: golden_diff <dump-before> <dump-after>");
        return ExitCode::from(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).map_err(|e| eprintln!("cannot read {path}: {e}")).ok()
    };
    let (Some(a), Some(b)) = (read(before), read(after)) else {
        return ExitCode::from(2);
    };
    let Some((floats, sites)) = diff(&a, &b) else {
        return ExitCode::FAILURE;
    };
    let name = after.rsplit('/').next().unwrap_or(after);
    print!("{}", report(name, floats, &sites));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dump in the golden format: one header float, two series over
    /// windows at t = 5 s and 10 s.
    fn dump(utilization: f64, a: [f64; 2], b: [f64; 2]) -> String {
        let bits = |x: f64| format!("{:016x}", x.to_bits());
        let mut out = format!("bindings 12\nutilization alloc={}\n", bits(utilization));
        for (name, values) in [("app0/alloc_cpu", a), ("app0/p99_ms", b)] {
            out += &format!("series {name} len=2\n");
            for (t, v) in [5.0, 10.0].into_iter().zip(values) {
                out += &format!("  {} {}\n", bits(t), bits(v));
            }
        }
        out
    }

    fn report_of(before: &str, after: &str) -> String {
        let (floats, sites) = diff(before, after).expect("same shape");
        report("x.dump", floats, &sites)
    }

    /// A one-ulp change is named with its series and window, though it is
    /// far below the 1e-9 that lists a change on its own line; of two
    /// changes the earlier window is named, whatever the series order.
    #[test]
    fn the_earliest_change_is_named_whatever_its_size() {
        let before = dump(0.25, [100.0, 200.0], [3.0, 4.0]);
        let ulp = f64::from_bits(3.0f64.to_bits() + 1);
        let after = dump(0.25, [100.0, 250.0], [ulp, 4.0]);
        let report = report_of(&before, &after);
        assert!(report.starts_with("x.dump: 2 of 9 floats changed"), "{report}");
        let earliest = report.lines().find(|l| l.contains("earliest:")).expect("named");
        assert!(earliest.contains("t=5") && earliest.contains("app0/p99_ms"), "{report}");
        assert!(earliest.contains(&format!("3 -> {ulp}")), "{report}");
        let above: Vec<&str> = report.lines().filter(|l| l.contains("above 1e-9:")).collect();
        assert_eq!(above.len(), 1, "{report}");
        assert!(above[0].contains("t=10") && above[0].contains("app0/alloc_cpu"), "{report}");
    }

    /// A header float is the earliest change only when no sample moved;
    /// an unchanged dump names none.
    #[test]
    fn a_header_float_is_the_whole_run() {
        let before = dump(0.25, [100.0, 200.0], [3.0, 4.0]);
        let after = dump(0.5, [100.0, 200.0], [3.0, 4.0]);
        let report = report_of(&before, &after);
        let earliest = report.lines().find(|l| l.contains("earliest:")).expect("named");
        assert!(earliest.contains("whole run") && earliest.contains("utilization"), "{report}");
        let same = report_of(&before, &before);
        assert!(!same.contains("earliest:"), "{same}");
        assert!(same.starts_with("x.dump: 0 of 9 floats changed\n"), "{same}");
    }
}
