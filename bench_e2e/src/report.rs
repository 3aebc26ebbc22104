//! What the benchmark prints and writes: the result object of one run, the
//! human-readable metric listing, the report of a full set, and
//! `BENCHMARK.json` itself (so the manifest cannot drift from the code).

use crate::adapter::{json_escape, Json};
use crate::e2e::E2e;
use crate::layers::{Layers, EXACT, METRICS};
use crate::spans::{self, Span};
use crate::workloads;

/// Seconds one run measures for (`run_seconds` of BENCHMARK.json).
pub const RUN_SECONDS: u64 = 25;

/// `(name, unit, better, bound)` of the end-to-end metrics. The bound is
/// the share of the parent's median by which a change may worsen the
/// metric. The fourth end-to-end number, failed operations over attempted,
/// travels in the result object's `failed` / `attempted` keys (a metric
/// whose value is 0 on every healthy run has no median to take a share of):
/// any failure at all is a regression.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("solve_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Compact JSON text of a value (finite numbers only).
pub fn emit(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            assert!(n.is_finite(), "non-finite number in a report");
            n.to_string()
        }
        Json::Str(s) => format!("\"{}\"", json_escape(s)),
        Json::Arr(a) => format!("[{}]", a.iter().map(emit).collect::<Vec<_>>().join(", ")),
        Json::Obj(o) => format!(
            "{{{}}}",
            o.iter()
                .map(|(k, v)| format!("\"{}\": {}", json_escape(k), emit(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ])
}

fn result(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// `solve_s` and `setup_s` are the lower quartile of their samples, not
/// the median: on a shared host interference only ever adds time, so the
/// faster half of a run is the half that measures the program (README,
/// "Bounds and this box").
fn e2e_values(r: &E2e) -> [f64; 3] {
    [r.solve.q1, r.setup.q1, r.peak_rss_mb]
}

/// The result object of an untraced run: every end-to-end metric.
pub fn e2e_json(r: &E2e) -> Json {
    let metrics = END_TO_END
        .iter()
        .zip(e2e_values(r))
        .map(|((name, unit, _, _), v)| (name.to_string(), metric(v, unit)))
        .collect();
    result(r.failed == 0, r.attempted, r.failed, metrics)
}

/// The result object of a traced run: every per-layer metric.
pub fn layers_json(l: &Layers) -> Json {
    let metrics = METRICS
        .iter()
        .map(|(name, unit, _)| (name.to_string(), metric(l.values[name], unit)))
        .collect();
    result(l.failed == 0, l.attempted, l.failed, metrics)
}

/// `metrics.<name>.value` of a result object.
pub fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("result has no metric {name}")),
    }
}

pub fn print_e2e(r: &E2e) {
    let [solve_s, setup_s, rss] = e2e_values(r);
    println!(
        "solve_s      {solve_s:.6} s    q1 per operation: {} (quartile spread {:.1}%)",
        r.solve,
        r.solve.spread() * 100.0
    );
    println!("setup_s      {setup_s:.6} s    q1 per set-up:    {}", r.setup);
    println!("peak_rss_mb  {rss:.3} MiB");
    println!(
        "failed_share {} / {} operations{}",
        r.failed,
        r.attempted,
        r.first_failure
            .as_ref()
            .map_or(String::new(), |f| format!("  (first: {f})"))
    );
    println!(
        "exact counts of instance 0 (matvecs, iterations per solve): {:?}",
        r.exact
    );
}

pub fn print_layers(l: &Layers, all: &[Span]) {
    for (name, unit, better) in METRICS {
        let exact = if EXACT.contains(name) { ", exact" } else { "" };
        println!(
            "{name:<34} {:>16.6} {unit:<8} ({better} is better{exact})",
            l.values[name]
        );
    }
    println!(
        "checked answers: {} failed of {}{}",
        l.failed,
        l.attempted,
        l.first_failure
            .as_ref()
            .map_or(String::new(), |f| format!("  (first: {f})"))
    );
    println!(
        "un-instrumented solve in this pass: {:.6} s",
        l.solve_plain_s
    );
    println!("timings behind the ratio rows (seconds):");
    for (name, s) in &l.details {
        println!("  {name:<24} {s}");
    }
    println!("span self time (duration minus same-thread children), top 12:");
    for (name, calls, total, own) in spans::self_times(all).into_iter().take(12) {
        println!(
            "  {name:<36} calls {calls:>5}  total {:>10.3} ms  self {:>10.3} ms",
            total / 1e3,
            own / 1e3
        );
    }
}

/// One line per workload and end-to-end metric of a full report.
pub fn table(doc: &Json) -> String {
    let mut out = format!("{:<22}", "workload");
    for (name, unit, _, _) in END_TO_END {
        out.push_str(&format!(" {:>16}", format!("{name} [{unit}]")));
    }
    out.push_str("   failed/attempted\n");
    let Some(rows) = doc.get("workloads").and_then(Json::as_obj) else {
        return out;
    };
    for (name, row) in rows {
        out.push_str(&format!("{name:<22}"));
        let e = row.get("end_to_end");
        for (metric, _, _, _) in END_TO_END {
            let v = e
                .and_then(|e| metric_value(e, metric).ok())
                .unwrap_or(f64::NAN);
            out.push_str(&format!(" {v:>16.6}"));
        }
        let count = |k: &str| e.and_then(|e| e.get(k)).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!("   {}/{}\n", count("failed"), count("attempted")));
    }
    out
}

/// The text of `BENCHMARK.json`, generated from the same tables the
/// benchmark reports from (`bench_e2e --manifest`; a unit test holds the
/// checked-in file to it).
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bench_e2e/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads = workloads::all(false)
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name,
                json_escape(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
                 \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer = METRICS
        .iter()
        .map(|(name, unit, better)| {
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bench_e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::json_parse;

    #[test]
    fn emit_round_trips_through_the_parser() {
        let doc = result(
            true,
            12,
            0,
            vec![
                ("solve_s".into(), metric(0.123456789012345, "s")),
                ("tiny".into(), metric(1.5e-7, "s")),
                ("count".into(), metric(4140.0, "count")),
                ("text \"q\"".into(), Json::Str("a\\b\n".into())),
            ],
        );
        let text = emit(&doc);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(json_parse(&text).expect("valid JSON"), doc);
        assert_eq!(metric_value(&doc, "solve_s"), Ok(0.123456789012345));
        assert!(metric_value(&doc, "absent").is_err());
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let doc = result(false, 3, 1, Vec::new());
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn checked_in_manifest_matches_the_code() {
        let text = manifest();
        assert_eq!(
            text,
            include_str!("../../BENCHMARK.json"),
            "regenerate with `bench_e2e --manifest > BENCHMARK.json`"
        );
        let doc = json_parse(&text).expect("manifest is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads").len(), 4);
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        assert_eq!(names("per_layer").len(), METRICS.len());
        // The contract's limits on names, units and the `why` lines.
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for key in ["workloads", "end_to_end", "per_layer"] {
            for m in doc.get(key).and_then(Json::as_arr).unwrap() {
                assert!(ok_name(m.get("name").and_then(Json::as_str).unwrap()));
                if let Some(u) = m.get("unit").and_then(Json::as_str) {
                    assert!(ok_unit(u), "unit {u}");
                }
                if let Some(w) = m.get("why").and_then(Json::as_str) {
                    assert!(w.len() <= 200 && !w.contains('\n'), "why: {w}");
                }
            }
        }
        for (_, _, _, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
    }
}
