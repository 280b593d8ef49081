//! A minimal, dependency-free TOML-subset parser for scenario files.
//!
//! The vendored `toml`/`serde` crates are offline stubs (DESIGN.md
//! decision 2), so scenario files are parsed by hand — the same
//! discipline as the `evolve_types::codec` binary codec. The subset is
//! exactly what [`crate::spec::ScenarioSpec::to_toml`] emits:
//!
//! * `key = value` pairs with bare keys (letters, digits, `_`, `-`);
//! * `[table]` and `[[array-of-tables]]` headers, with dotted paths
//!   (`[service.load]` attaches to the most recent `[[service]]`);
//! * values: basic `"strings"` (escapes `\\ \" \n \t \r`), integers,
//!   floats, booleans, and single-line (possibly nested) arrays;
//! * `#` comments and blank lines.
//!
//! Not supported (rejected with a line-numbered [`ScenarioError::Syntax`]):
//! multi-line strings/arrays, inline tables, dotted or quoted keys,
//! dates, and duplicate keys.

use std::collections::BTreeMap;

use crate::spec::ScenarioError;

/// A parsed TOML scalar or array value.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
}

impl Value {
    /// Human-readable type label for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }
}

/// One entry of a table: a scalar value, a sub-table, or an array of
/// tables.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Item {
    Value(Value),
    Table(Table),
    TableArray(Vec<Table>),
}

impl Item {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Item::Value(v) => v.type_name(),
            Item::Table(_) => "table",
            Item::TableArray(_) => "array of tables",
        }
    }
}

/// A TOML table: key → (defining line, item). `BTreeMap` keeps error
/// reporting and iteration deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Table {
    /// Line of the header that opened this table (1-based; 0 for root).
    pub line: usize,
    pub entries: BTreeMap<String, (usize, Item)>,
}

impl Table {
    fn with_line(line: usize) -> Table {
        Table { line, entries: BTreeMap::new() }
    }
}

fn syntax(line: usize, detail: impl Into<String>) -> ScenarioError {
    ScenarioError::Syntax { line, detail: detail.into() }
}

/// Parses a complete TOML document into its root table.
pub(crate) fn parse(src: &str) -> Result<Table, ScenarioError> {
    let mut root = Table::default();
    let mut path: Vec<String> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[") {
            let inner = inner
                .strip_suffix("]]")
                .ok_or_else(|| syntax(line_no, "array-of-tables header must end with `]]`"))?;
            let comps = parse_path(inner, line_no)?;
            open_header(&mut root, &comps, true, line_no)?;
            path = comps;
        } else if let Some(inner) = line.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| syntax(line_no, "table header must end with `]`"))?;
            let comps = parse_path(inner, line_no)?;
            open_header(&mut root, &comps, false, line_no)?;
            path = comps;
        } else {
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| syntax(line_no, "expected `key = value` or a `[table]` header"))?;
            let key = key.trim();
            check_bare_key(key, line_no)?;
            let (value, tail) = parse_value(rest, line_no)?;
            if !tail.trim().is_empty() {
                return Err(syntax(
                    line_no,
                    format!("unexpected trailing content after value: `{}`", tail.trim()),
                ));
            }
            let table = target_table(&mut root, &path);
            if table.entries.contains_key(key) {
                return Err(syntax(line_no, format!("duplicate key `{key}`")));
            }
            table.entries.insert(key.to_string(), (line_no, Item::Value(value)));
        }
    }
    Ok(root)
}

/// Splits a dotted header path into validated bare-key components.
fn parse_path(inner: &str, line: usize) -> Result<Vec<String>, ScenarioError> {
    let comps: Vec<String> = inner.split('.').map(|c| c.trim().to_string()).collect();
    for c in &comps {
        check_bare_key(c, line)?;
    }
    Ok(comps)
}

fn check_bare_key(key: &str, line: usize) -> Result<(), ScenarioError> {
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
        return Err(syntax(
            line,
            format!("invalid key `{key}` (bare keys may use letters, digits, `_`, `-`)"),
        ));
    }
    Ok(())
}

/// Creates (or re-opens) the table a `[header]` / `[[header]]` names,
/// growing intermediate tables as needed. For `[[x]]` a fresh element is
/// appended; intermediate components descend into the *last* element of
/// an array of tables, which is what makes `[service.load]` after
/// `[[service]]` attach to the most recent service.
fn open_header(
    root: &mut Table,
    comps: &[String],
    array: bool,
    line: usize,
) -> Result<(), ScenarioError> {
    let mut cur = root;
    for (i, comp) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if !cur.entries.contains_key(comp.as_str()) {
            let item = if last && array {
                Item::TableArray(vec![Table::with_line(line)])
            } else {
                Item::Table(Table::with_line(line))
            };
            cur.entries.insert(comp.clone(), (line, item));
        } else if last {
            match (&cur.entries[comp.as_str()].1, array) {
                (Item::TableArray(_), true) => {
                    if let (_, Item::TableArray(v)) =
                        cur.entries.get_mut(comp.as_str()).expect("checked above")
                    {
                        v.push(Table::with_line(line));
                    }
                }
                (Item::Table(_), false) => {} // re-opening a plain table is fine
                (Item::TableArray(_), false) => {
                    return Err(syntax(
                        line,
                        format!("`{comp}` is an array of tables; use `[[{comp}]]`"),
                    ));
                }
                (Item::Table(_), true) => {
                    return Err(syntax(
                        line,
                        format!("`{comp}` was already defined as a plain `[{comp}]` table"),
                    ));
                }
                (Item::Value(_), _) => {
                    return Err(syntax(line, format!("`{comp}` is a value, not a table")));
                }
            }
        }
        cur = match &mut cur.entries.get_mut(comp.as_str()).expect("inserted above").1 {
            Item::Table(t) => t,
            Item::TableArray(v) => v.last_mut().expect("array of tables is never empty"),
            Item::Value(_) => {
                return Err(syntax(line, format!("`{comp}` is a value, not a table")));
            }
        };
    }
    Ok(())
}

/// Resolves the table a previously-opened header path points at.
fn target_table<'a>(root: &'a mut Table, path: &[String]) -> &'a mut Table {
    let mut cur = root;
    for comp in path {
        cur = match &mut cur.entries.get_mut(comp.as_str()).expect("header opened this path").1 {
            Item::Table(t) => t,
            Item::TableArray(v) => v.last_mut().expect("array of tables is never empty"),
            Item::Value(_) => unreachable!("header opening rejects value components"),
        };
    }
    cur
}

/// Removes a trailing `#` comment, honouring `#` inside strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '#' {
            return &line[..i];
        }
    }
    line
}

/// Parses one value from the front of `s`, returning it with the unread
/// remainder of the line.
fn parse_value(s: &str, line: usize) -> Result<(Value, &str), ScenarioError> {
    let s = s.trim_start();
    match s.chars().next() {
        None => Err(syntax(line, "expected a value")),
        Some('"') => {
            let mut out = String::new();
            let mut iter = s.char_indices().skip(1);
            while let Some((i, c)) = iter.next() {
                match c {
                    '"' => return Ok((Value::Str(out), &s[i + 1..])),
                    '\\' => match iter.next() {
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        other => {
                            let shown = other.map_or(String::new(), |(_, c)| c.to_string());
                            return Err(syntax(
                                line,
                                format!("unsupported string escape `\\{shown}`"),
                            ));
                        }
                    },
                    c => out.push(c),
                }
            }
            Err(syntax(line, "unterminated string"))
        }
        Some('[') => {
            let mut rest = &s[1..];
            let mut items = Vec::new();
            loop {
                let t = rest.trim_start();
                if let Some(after) = t.strip_prefix(']') {
                    return Ok((Value::Array(items), after));
                }
                let (v, after) = parse_value(t, line)?;
                items.push(v);
                let t = after.trim_start();
                if let Some(after) = t.strip_prefix(',') {
                    rest = after;
                } else if t.starts_with(']') {
                    rest = t;
                } else {
                    return Err(syntax(line, "expected `,` or `]` in array"));
                }
            }
        }
        Some(_) => {
            let end =
                s.find(|c: char| c.is_whitespace() || c == ',' || c == ']').unwrap_or(s.len());
            let (tok, rest) = s.split_at(end);
            match tok {
                "true" => Ok((Value::Bool(true), rest)),
                "false" => Ok((Value::Bool(false), rest)),
                _ => {
                    let clean: String = tok.chars().filter(|c| *c != '_').collect();
                    if clean.contains('.') || clean.contains(['e', 'E']) {
                        clean
                            .parse::<f64>()
                            .map(|f| (Value::Float(f), rest))
                            .map_err(|_| syntax(line, format!("invalid number `{tok}`")))
                    } else {
                        clean
                            .parse::<i64>()
                            .map(|i| (Value::Int(i), rest))
                            .map_err(|_| syntax(line, format!("invalid integer `{tok}`")))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(t: &'a Table, key: &str) -> &'a Item {
        &t.entries[key].1
    }

    #[test]
    fn parses_scalars_and_comments() {
        let t = parse(
            "# header comment\nname = \"web # not a comment\" # trailing\nrate = 1.5\ncount = 3\nflag = true\n",
        )
        .unwrap();
        assert_eq!(get(&t, "name"), &Item::Value(Value::Str("web # not a comment".into())));
        assert_eq!(get(&t, "rate"), &Item::Value(Value::Float(1.5)));
        assert_eq!(get(&t, "count"), &Item::Value(Value::Int(3)));
        assert_eq!(get(&t, "flag"), &Item::Value(Value::Bool(true)));
    }

    #[test]
    fn parses_nested_arrays() {
        let t = parse("points = [[0.0, 60.0], [240.0, 240.0]]\n").unwrap();
        let Item::Value(Value::Array(points)) = get(&t, "points") else {
            panic!("expected array");
        };
        assert_eq!(points.len(), 2);
        assert_eq!(points[1], Value::Array(vec![Value::Float(240.0), Value::Float(240.0)]));
    }

    #[test]
    fn array_of_tables_with_subtable() {
        let src = "[[service]]\nname = \"a\"\n[service.load]\nkind = \"constant\"\n[[service]]\nname = \"b\"\n";
        let t = parse(src).unwrap();
        let Item::TableArray(services) = get(&t, "service") else {
            panic!("expected array of tables");
        };
        assert_eq!(services.len(), 2);
        assert!(services[0].entries.contains_key("load"));
        assert!(!services[1].entries.contains_key("load"));
    }

    #[test]
    fn rejects_duplicate_key_with_line() {
        let err = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(err, syntax(2, "duplicate key `a`"));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(matches!(
            parse("name = \"web\n").unwrap_err(),
            ScenarioError::Syntax { line: 1, .. }
        ));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(matches!(parse("a = 1 2\n").unwrap_err(), ScenarioError::Syntax { line: 1, .. }));
    }

    #[test]
    fn rejects_value_reopened_as_table() {
        assert!(matches!(
            parse("a = 1\n[a]\nb = 2\n").unwrap_err(),
            ScenarioError::Syntax { line: 2, .. }
        ));
    }

    #[test]
    fn rejects_nan_and_bare_words() {
        assert!(parse("a = nan\n").is_err());
        assert!(parse("a = hello\n").is_err());
    }
}
