//! Baseline gate: re-runs an experiment and diffs its fresh JSON against
//! the committed `BENCH_*.json`.
//!
//! The `experiments` binary's `check` mode (CI runs it on every push)
//! reads the **committed** baseline *before* re-running, regenerates
//! the document in memory (nothing on disk is overwritten) and compares
//! the two key by key: top-level scalars directly, the rows of every
//! top-level array matched by their size key.
//!
//! * **Gated** are the values that repeat exactly, because every
//!   experiment here is deterministic given its seed: booleans
//!   (`parity`, `healed`, `within_budget`, …), admitted `*_fraction`s
//!   and `conservation_violations`. The comparison is two-sided: a
//!   worse value fails as *regressed*, a better one fails as *rebaseline
//!   me* — a committed file that no longer describes HEAD is wrong in
//!   either direction — and so does a gated key the fresh run lacks.
//! * **Everything else that moved** — every clock reading, every count
//!   that depends on thread timing — is reported with its ratio to the
//!   committed value and never fails. Wall-clock numbers are gated in
//!   one place, `fleetbench` (`BENCHMARK.json`), which compares parent
//!   and change on the same host in alternating pairs; a ±x % rule
//!   against a number measured on another day is not a gate.
//!
//! Rows present on only one side (e.g. a `--scenarios` override moved a
//! size) are notes: the gate compares like with like.
//!
//! The JSON parser below is a minimal hand-rolled recursive descent:
//! the workspace has no JSON dependency and parses exactly the
//! documents it emits.

use std::collections::BTreeMap;

/// A parsed JSON value (only what the `BENCH_*.json` documents use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (all benchmark numbers fit f64 exactly enough).
    Num(f64),
    /// A string (no escape sequences beyond `\"` and `\\` needed).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered by key.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The number if this is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&what) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos:?}",
            char::from(what),
            pos = *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &[u8], out: Json) -> Result<Json, String> {
    if bytes.len() - *pos >= lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(out)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("truncated escape")?;
                *pos += 1;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b't' => '\t',
                    other => return Err(format!("unsupported escape '\\{}'", char::from(other))),
                });
            }
            other => out.push(char::from(other)),
        }
    }
    Err("unterminated string".into())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// The outcome of one baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Gated values that differ or are missing — any entry fails the
    /// check.
    pub failures: Vec<String>,
    /// Ungated numbers that moved, each with its ratio to the baseline.
    pub ungated: Vec<String>,
    /// Skipped/unmatched context, printed but not failing.
    pub notes: Vec<String>,
    /// Gated values that were compared.
    pub compared: usize,
}

/// Whether `key` holds a value that repeats exactly from run to run.
/// `BENCH_obs_overhead.json`'s one measured `overhead_fraction` is a
/// clock reading (its `within_budget` boolean gates it);
/// `budget_fraction` is the constant it is held against.
fn is_gated(key: &str, value: &Json) -> bool {
    match value {
        Json::Bool(_) => true,
        Json::Num(_) => {
            key == "conservation_violations"
                || (key.ends_with("_fraction")
                    && key != "overhead_fraction"
                    && key != "budget_fraction")
        }
        _ => false,
    }
}

/// `None` when a gated value reproduced; otherwise the move and which
/// way it went. Lower is better for violations, higher for fractions,
/// `true` for flags.
fn gated_change(key: &str, base: &Json, cur: &Json) -> Option<String> {
    let worse = match (base, cur) {
        _ if base == cur => return None,
        (Json::Bool(b), Json::Bool(_)) => *b,
        (Json::Num(b), Json::Num(c)) => (c > b) == (key == "conservation_violations"),
        _ => true,
    };
    let shown = |v: &Json| match v {
        Json::Bool(x) => x.to_string(),
        Json::Num(x) => x.to_string(),
        other => format!("{other:?}"),
    };
    let verdict = if worse {
        "regressed"
    } else {
        "improved on the committed file: rebaseline me"
    };
    Some(format!("{} → {} ({verdict})", shown(base), shown(cur)))
}

fn compare_object(context: &str, base: &Json, cur: &Json, report: &mut CheckReport) {
    let Json::Obj(base_map) = base else {
        return;
    };
    for (key, bv) in base_map {
        let gated = is_gated(key, bv);
        let Some(cv) = cur.get(key) else {
            let missing = format!("{context}: '{key}' is missing from the fresh run");
            if gated {
                report.failures.push(format!(
                    "{missing} (regressed, or removed on purpose: rebaseline me)"
                ));
            } else {
                report.notes.push(missing);
            }
            continue;
        };
        if gated {
            report.compared += 1;
            if let Some(change) = gated_change(key, bv, cv) {
                report.failures.push(format!("{context}: '{key}' {change}"));
            }
        } else if let (Json::Num(b), Json::Num(c)) = (bv, cv) {
            if b != c {
                report
                    .ungated
                    .push(format!("{context}: '{key}' {b} → {c} (×{:.2})", c / b));
            }
        }
    }
}

/// The key a row is matched by: the axis its array sweeps.
fn row_key(row: &Json) -> Option<(&'static str, f64)> {
    ["max_session_size", "sessions", "agents"]
        .into_iter()
        .find_map(|key| Some((key, row.get(key)?.as_num()?)))
}

/// Compares a committed baseline document against a freshly
/// regenerated one. Top-level scalars are compared directly; the rows
/// of every top-level array (`rows`, `conference_sizes`, `tiers`) are
/// matched by their size key, and rows on only one side become notes,
/// not failures.
pub fn compare(id: &str, baseline: &str, current: &str) -> Result<CheckReport, String> {
    let base = parse(baseline).map_err(|e| format!("{id}: committed baseline unparsable: {e}"))?;
    let cur = parse(current).map_err(|e| format!("{id}: fresh run unparsable: {e}"))?;
    let mut report = CheckReport::default();
    compare_object(id, &base, &cur, &mut report);
    let Json::Obj(base_map) = &base else {
        return Ok(report);
    };
    for (name, value) in base_map {
        // An array the fresh run lacks was noted as a missing key above.
        let (Json::Arr(base_rows), Some(Json::Arr(cur_rows))) = (value, cur.get(name)) else {
            continue;
        };
        for brow in base_rows {
            let Some((key, size)) = row_key(brow) else {
                report
                    .notes
                    .push(format!("{id}.{name}: baseline row without a size key"));
                continue;
            };
            match cur_rows.iter().find(|crow| row_key(crow) == Some((key, size))) {
                Some(crow) => {
                    compare_object(&format!("{id}.{name}[{key}={size}]"), brow, crow, &mut report);
                }
                None => report.notes.push(format!(
                    "{id}.{name}: baseline row {key}={size} absent from the fresh run (size sweep differs); skipped"
                )),
            }
        }
        for crow in cur_rows {
            let Some((key, size)) = row_key(crow) else {
                continue;
            };
            if !base_rows
                .iter()
                .any(|brow| row_key(brow) == Some((key, size)))
            {
                report.notes.push(format!(
                    "{id}.{name}: fresh row {key}={size} has no committed baseline; skipped"
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "experiment": "demo", "cpus": 1, "register_per_s": 5000.0,
  "rows": [
    {"sessions": 100, "engine_fraction": 0.93, "admits_per_s": 1000.0, "admit_p50_us": 6.0, "parity": true, "conservation_violations": 0},
    {"sessions": 200, "engine_fraction": 0.90, "admits_per_s": 2000.0, "admit_p50_us": 7.5, "parity": true, "conservation_violations": 0}
  ],
  "conference_sizes": [
    {"max_session_size": 5, "sessions": 120, "scratch_hops_per_s": 39366.0, "scratch_p50_ns": 15616, "recover_ms": 10.29}
  ]
}"#;

    fn check(current: &str) -> CheckReport {
        compare("demo", BASE, current).expect("comparable")
    }

    #[test]
    fn parser_round_trips_the_shapes_we_emit() {
        let v = parse(BASE).expect("parses");
        assert_eq!(v.get("experiment"), Some(&Json::Str("demo".into())));
        let Some(Json::Arr(rows)) = v.get("rows") else {
            panic!("rows missing")
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("sessions").and_then(Json::as_num), Some(100.0));
        assert_eq!(rows[0].get("parity").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn identical_documents_pass() {
        let report = check(BASE);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // Two rows × (fraction, flag, violations).
        assert_eq!(report.compared, 6);
        assert!(report.ungated.is_empty(), "{:?}", report.ungated);
    }

    #[test]
    fn fraction_drop_fails_throughput_margin_tolerates() {
        let current = BASE
            .replace("\"engine_fraction\": 0.93", "\"engine_fraction\": 0.92")
            .replace("\"admits_per_s\": 1000.0", "\"admits_per_s\": 850.0");
        let report = check(&current);
        // 0.93 → 0.92 fails; 1000 → 850 is a clock reading — any margin
        // is tolerated, the move is reported.
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("engine_fraction"));
        assert_eq!(report.ungated.len(), 1, "{:?}", report.ungated);
        assert!(report.ungated[0].contains("admits_per_s") && report.ungated[0].contains("×0.85"));
    }

    #[test]
    fn clock_readings_are_reported_never_gated() {
        // Every `*_per_s` / `*_us` / `*_ns` / `*_ms` value, top level and
        // in both arrays, a decade down and a decade up.
        let timings = [
            ("register_per_s", "5000.0"),
            ("admits_per_s", "1000.0"),
            ("admits_per_s", "2000.0"),
            ("admit_p50_us", "6.0"),
            ("admit_p50_us", "7.5"),
            ("scratch_hops_per_s", "39366.0"),
            ("scratch_p50_ns", "15616"),
            ("recover_ms", "10.29"),
        ];
        for (factor, ratio) in [(0.1, "×0.10"), (10.0, "×10.00")] {
            let mut current = BASE.to_string();
            for (key, value) in timings {
                let moved = value.parse::<f64>().unwrap() * factor;
                current = current.replace(
                    &format!("\"{key}\": {value}"),
                    &format!("\"{key}\": {moved}"),
                );
            }
            let report = check(&current);
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            assert_eq!(report.ungated.len(), timings.len(), "{:?}", report.ungated);
            assert!(report.ungated.iter().all(|line| line.contains(ratio)));
        }
    }

    #[test]
    fn gated_fraction_moved_either_way_fails() {
        for (moved, verdict) in [("0.929", "regressed"), ("0.931", "rebaseline me")] {
            let current = BASE.replace(
                "\"engine_fraction\": 0.93",
                &format!("\"engine_fraction\": {moved}"),
            );
            let report = check(&current);
            assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
            let failure = &report.failures[0];
            assert!(failure.contains("engine_fraction") && failure.contains(verdict));
        }
    }

    #[test]
    fn boolean_flipped_either_way_fails() {
        let flipped = BASE.replacen("\"parity\": true", "\"parity\": false", 1);
        let report = check(&flipped);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("true → false (regressed)"));
        let report = compare("demo", &flipped, BASE).expect("comparable");
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("false → true"));
        assert!(report.failures[0].contains("rebaseline me"));
    }

    #[test]
    fn violations_increase_fails() {
        let dirty = BASE.replacen(
            "\"conservation_violations\": 0",
            "\"conservation_violations\": 2",
            1,
        );
        let report = check(&dirty);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert!(failure.contains("conservation_violations") && failure.contains("regressed"));
        // … and a baseline that still records them fails a clean run.
        let report = compare("demo", &dirty, BASE).expect("comparable");
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("rebaseline me"));
    }

    #[test]
    fn missing_gated_key_fails_missing_ungated_key_is_a_note() {
        let current =
            BASE.replacen("\"parity\": true, ", "", 1)
                .replacen("\"admit_p50_us\": 6.0, ", "", 1);
        let report = check(&current);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("'parity' is missing"));
        assert_eq!(report.notes.len(), 1, "{:?}", report.notes);
        assert!(report.notes[0].contains("'admit_p50_us' is missing"));
    }

    #[test]
    fn unmatched_rows_are_notes_not_failures() {
        let current = BASE
            .replace("\"sessions\": 200", "\"sessions\": 300")
            .replace("\"max_session_size\": 5", "\"max_session_size\": 8");
        let report = check(&current);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        for expected in [
            "baseline row sessions=200 absent",
            "fresh row sessions=300 has no committed baseline",
            "baseline row max_session_size=5 absent",
            "fresh row max_session_size=8 has no committed baseline",
        ] {
            assert!(
                report
                    .notes
                    .iter()
                    .any(|n| n.contains(expected) && n.contains("skipped")),
                "{expected}: {:?}",
                report.notes
            );
        }
    }
}
