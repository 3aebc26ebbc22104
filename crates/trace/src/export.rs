//! Trace exporters: Chrome trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto), a flat per-region summary table matching the categories of
//! the paper's Fig. 2, and machine-readable metrics JSON for the bench bins.
//!
//! All exporters are deterministic: timestamps in the Chrome file are
//! synthesized from per-rank event ordinals (one tick per event), never from
//! a clock, so replays of the same run export byte-identical files.

use crate::json::{self, Json};
use crate::model::{Trace, TraceEvent};
use chase_comm::{Category, EventKind, Region};

fn kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Gemm { .. } => "Gemm",
        EventKind::Herk { .. } => "Herk",
        EventKind::Potrf { .. } => "Potrf",
        EventKind::Trsm { .. } => "Trsm",
        EventKind::Heevd { .. } => "Heevd",
        EventKind::HhQr { .. } => "HhQr",
        EventKind::Blas1 { .. } => "Blas1",
        EventKind::H2D { .. } => "H2D",
        EventKind::D2H { .. } => "D2H",
        EventKind::AllReduce { .. } => "AllReduce",
        EventKind::Bcast { .. } => "Bcast",
        EventKind::AllGather { .. } => "AllGather",
        EventKind::Barrier { .. } => "Barrier",
        EventKind::P2p { .. } => "P2p",
        EventKind::GridShrink { .. } => "GridShrink",
        EventKind::Redistribute { .. } => "Redistribute",
    }
}

/// Export a trace in the Chrome trace-event format ("JSON array format" of
/// the trace-event spec). One process, one thread per rank; `ts` is the
/// event's ordinal in its rank's stream.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut items: Vec<String> = Vec::new();
    for r in &trace.ranks {
        items.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"rank {}\"}}}}",
            r.rank, r.rank
        ));
        for (tick, e) in r.events.iter().enumerate() {
            let common = format!("\"ts\":{tick},\"pid\":0,\"tid\":{}", r.rank);
            items.push(match e {
                TraceEvent::SpanBegin { name, arg } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"B\",{common},\"args\":{{\"arg\":{arg}}}}}",
                    json::escape(name)
                ),
                TraceEvent::SpanEnd { name } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"E\",{common}}}",
                    json::escape(name)
                ),
                TraceEvent::Op { region, kind } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",{common},\"dur\":1,\"args\":{{\"region\":\"{}\",\"flops\":{},\"bytes\":{}}}}}",
                    kind_name(kind),
                    region.name(),
                    kind.flops(),
                    kind.bytes()
                ),
                TraceEvent::Collective {
                    scope,
                    op,
                    seq,
                    bytes,
                    members,
                } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",{common},\"dur\":1,\"args\":{{\"scope\":\"{}\",\"seq\":{seq},\"bytes\":{bytes},\"members\":{members}}}}}",
                    json::escape(op),
                    scope.name()
                ),
                TraceEvent::Counter { name, value } => format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",{common},\"args\":{{\"value\":{value}}}}}",
                    json::escape(name)
                ),
            });
        }
    }
    format!("[{}]", items.join(",\n"))
}

/// Validate a string against the subset of the Chrome trace-event schema the
/// exporter produces: a JSON array of objects, each with `name`/`ph`/`ts`/
/// `pid`/`tid`, `ph` drawn from the known set, and `B`/`E` pairs properly
/// stack-nested per thread.
pub fn validate_chrome_trace(s: &str) -> Result<(), String> {
    let v = json::parse(s)?;
    let arr = v.as_arr().ok_or("chrome trace must be a JSON array")?;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    for (i, item) in arr.iter().enumerate() {
        let obj = item
            .as_obj()
            .ok_or_else(|| format!("entry {i} is not an object"))?;
        let _ = obj;
        let name = item
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i} missing \"name\""))?;
        let ph = item
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entry {i} missing \"ph\""))?;
        for key in ["ts", "pid", "tid"] {
            item.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("entry {i} missing integer \"{key}\""))?;
        }
        let tid = item.get("tid").and_then(Json::as_u64).unwrap();
        match ph {
            "M" | "C" => {}
            "X" => {
                item.get("dur")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("entry {i}: \"X\" event missing \"dur\""))?;
            }
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let top = stacks.entry(tid).or_default().pop().ok_or_else(|| {
                    format!("entry {i}: \"E\" for {name:?} with no open span on tid {tid}")
                })?;
                if top != name {
                    return Err(format!(
                        "entry {i}: \"E\" closes {name:?} but innermost open span on tid {tid} is {top:?}"
                    ));
                }
            }
            other => return Err(format!("entry {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span {open:?} never closed"));
        }
    }
    Ok(())
}

/// Per-region totals across all ranks: (compute flops, comm bytes, transfer
/// bytes) — the three color groups of Fig. 2.
fn region_totals(trace: &Trace, region: Region) -> (u64, u64, u64) {
    let mut flops = 0;
    let mut comm = 0;
    let mut transfer = 0;
    for r in &trace.ranks {
        for e in &r.events {
            if let TraceEvent::Op { region: er, kind } = e {
                if *er != region {
                    continue;
                }
                match kind.category() {
                    Category::Compute => flops += kind.flops(),
                    Category::Comm => comm += kind.bytes(),
                    Category::Transfer => transfer += kind.bytes(),
                }
            }
        }
    }
    (flops, comm, transfer)
}

/// Render the flat per-region summary table (all ranks aggregated):
///
/// ```text
/// region          compute-flops     comm-bytes  transfer-bytes
/// Filter               12345678          65536               0
/// ...
/// total                ...
/// ```
pub fn summary_table(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14}{:>16}{:>16}{:>16}\n",
        "region", "compute-flops", "comm-bytes", "transfer-bytes"
    ));
    let mut tot = (0u64, 0u64, 0u64);
    for region in Region::ALL {
        let (f, c, t) = region_totals(trace, region);
        tot.0 += f;
        tot.1 += c;
        tot.2 += t;
        out.push_str(&format!("{:<14}{f:>16}{c:>16}{t:>16}\n", region.name()));
    }
    out.push_str(&format!(
        "{:<14}{:>16}{:>16}{:>16}\n",
        "total", tot.0, tot.1, tot.2
    ));
    out.push_str(&format!(
        "ranks: {}   collectives (rank 0): {}\n",
        trace.ranks.len(),
        trace.ranks.first().map_or(0, |r| r.collective_count())
    ));
    out
}

/// Machine-readable metrics JSON for the bench bins: per-rank aggregates
/// plus run totals, and `kernel`, the microkernel instantiation the host
/// ran (`chase_linalg::kernel_isa`; the trace itself is host-independent, so
/// the caller supplies it). Deterministic field order.
pub fn metrics_json(trace: &Trace, kernel: &str) -> String {
    let mut ranks = Vec::new();
    let mut tot = (0u64, 0u64, 0u64, 0usize);
    for r in &trace.ranks {
        let (f, c, t, n) = (
            r.flops(),
            r.comm_bytes(),
            r.transfer_bytes(),
            r.collective_count(),
        );
        tot.0 += f;
        tot.1 += c;
        tot.2 += t;
        tot.3 += n;
        let counters: Vec<String> = r
            .counters()
            .into_iter()
            .map(|(k, v)| format!("\"{}\":{v}", json::escape(&k)))
            .collect();
        ranks.push(format!(
            "{{\"rank\":{},\"events\":{},\"flops\":{f},\"comm_bytes\":{c},\"transfer_bytes\":{t},\"collectives\":{n},\"counters\":{{{}}}}}",
            r.rank,
            r.events.len(),
            counters.join(",")
        ));
    }
    format!(
        "{{\"kernel\":\"{}\",\"ranks\":[{}],\"totals\":{{\"flops\":{},\"comm_bytes\":{},\"transfer_bytes\":{},\"collectives\":{}}}}}",
        json::escape(kernel),
        ranks.join(","),
        tot.0,
        tot.1,
        tot.2,
        tot.3
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RankTrace;
    use chase_comm::CommScope;

    fn sample() -> Trace {
        Trace {
            ranks: vec![RankTrace {
                rank: 0,
                events: vec![
                    TraceEvent::SpanBegin {
                        name: "solve".into(),
                        arg: 0,
                    },
                    TraceEvent::Op {
                        region: Region::Filter,
                        kind: EventKind::Gemm { m: 4, n: 5, k: 6 },
                    },
                    TraceEvent::Op {
                        region: Region::Qr,
                        kind: EventKind::H2D { bytes: 96 },
                    },
                    TraceEvent::Collective {
                        scope: CommScope::World,
                        op: "allreduce".into(),
                        seq: 0,
                        bytes: 64,
                        members: 2,
                    },
                    TraceEvent::Counter {
                        name: "qr_rung_climbs".into(),
                        value: 2,
                    },
                    TraceEvent::SpanEnd {
                        name: "solve".into(),
                    },
                ],
            }],
        }
    }

    #[test]
    fn chrome_export_validates() {
        let s = chrome_trace(&sample());
        validate_chrome_trace(&s).unwrap();
        assert!(s.contains("\"ph\":\"B\""));
        assert!(s.contains("\"tid\":0"));
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let t = sample();
        assert_eq!(chrome_trace(&t), chrome_trace(&t));
    }

    #[test]
    fn validator_catches_malformed() {
        assert!(validate_chrome_trace("{}").is_err(), "not an array");
        assert!(
            validate_chrome_trace("[{\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0}]").is_err(),
            "missing name"
        );
        assert!(
            validate_chrome_trace("[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0}]")
                .is_err(),
            "unclosed span"
        );
        assert!(
            validate_chrome_trace(
                "[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":0,\"tid\":0},\
                  {\"name\":\"b\",\"ph\":\"E\",\"ts\":1,\"pid\":0,\"tid\":0}]"
            )
            .is_err(),
            "mismatched close"
        );
        assert!(
            validate_chrome_trace("[{\"name\":\"a\",\"ph\":\"Q\",\"ts\":0,\"pid\":0,\"tid\":0}]")
                .is_err(),
            "unknown phase"
        );
    }

    #[test]
    fn summary_and_metrics() {
        let t = sample();
        let table = summary_table(&t);
        assert!(table.contains("Filter"));
        assert!(table.contains("240"), "gemm flops in Filter row");
        assert!(table.contains("96"), "h2d bytes in QR row");
        let m = metrics_json(&t, "portable 4x4");
        crate::json::parse(&m).unwrap();
        assert!(m.starts_with("{\"kernel\":\"portable 4x4\","));
        assert!(m.contains("\"flops\":240"));
        assert!(m.contains("\"comm_bytes\":64"));
        assert!(m.contains("\"qr_rung_climbs\":2"));
    }
}
