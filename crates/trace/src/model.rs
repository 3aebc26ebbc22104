//! The trace data model: per-rank event streams and the full multi-rank
//! trace, with a deterministic hand-rolled JSON codec.
//!
//! Every event carries only replay-deterministic payloads — span names,
//! iteration numbers, kernel shapes, collective sequence numbers, counter
//! values. The position of an event in its rank's stream (its *tick*) is the
//! only notion of time; the Chrome exporter synthesizes timestamps from it.

use crate::json::{self, Json};
use chase_comm::{kind_from_json, kind_to_json, CommScope, EventKind, Ledger, Region};

/// One recorded trace event. The implicit tick of an event is its index in
/// the owning [`RankTrace::events`] vector.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A hierarchical span opened (`solve`, `iteration`, region spans).
    SpanBegin { name: String, arg: u64 },
    /// The matching span closed.
    SpanEnd { name: String },
    /// A ledger-style operation (kernel, collective payload, transfer)
    /// attributed to a solver region.
    Op { region: Region, kind: EventKind },
    /// A collective issued on a communicator, with the per-communicator
    /// sequence number the stitcher aligns ranks on.
    Collective {
        scope: CommScope,
        op: String,
        seq: u64,
        bytes: u64,
        members: u64,
    },
    /// A monotonic counter's cumulative value after an increment.
    Counter { name: String, value: u64 },
}

impl TraceEvent {
    fn to_json(&self) -> String {
        match self {
            TraceEvent::SpanBegin { name, arg } => {
                format!("{{\"ev\":\"b\",\"name\":\"{}\",\"arg\":{arg}}}", json::escape(name))
            }
            TraceEvent::SpanEnd { name } => {
                format!("{{\"ev\":\"e\",\"name\":\"{}\"}}", json::escape(name))
            }
            TraceEvent::Op { region, kind } => format!(
                "{{\"ev\":\"op\",\"region\":\"{}\",{}}}",
                region.name(),
                kind_to_json(kind)
            ),
            TraceEvent::Collective {
                scope,
                op,
                seq,
                bytes,
                members,
            } => format!(
                "{{\"ev\":\"coll\",\"scope\":\"{}\",\"op\":\"{}\",\"seq\":{seq},\"bytes\":{bytes},\"members\":{members}}}",
                scope.name(),
                json::escape(op)
            ),
            TraceEvent::Counter { name, value } => {
                format!("{{\"ev\":\"ctr\",\"name\":\"{}\",\"value\":{value}}}", json::escape(name))
            }
        }
    }

    fn from_json(v: &Json) -> Result<TraceEvent, String> {
        let tag = v
            .get("ev")
            .and_then(Json::as_str)
            .ok_or("trace event missing \"ev\" tag")?;
        let str_field = |key: &str| v.str_field(key).map(str::to_string);
        Ok(match tag {
            "b" => TraceEvent::SpanBegin {
                name: str_field("name")?,
                arg: v.u64_field("arg")?,
            },
            "e" => TraceEvent::SpanEnd {
                name: str_field("name")?,
            },
            "op" => {
                let region = str_field("region")?;
                let region = Region::parse_name(&region)
                    .ok_or_else(|| format!("unknown region {region}"))?;
                TraceEvent::Op {
                    region,
                    kind: kind_from_json(v)?,
                }
            }
            "coll" => {
                let scope = str_field("scope")?;
                TraceEvent::Collective {
                    scope: CommScope::parse_name(&scope)
                        .ok_or_else(|| format!("unknown scope {scope}"))?,
                    op: str_field("op")?,
                    seq: v.u64_field("seq")?,
                    bytes: v.u64_field("bytes")?,
                    members: v.u64_field("members")?,
                }
            }
            "ctr" => TraceEvent::Counter {
                name: str_field("name")?,
                value: v.u64_field("value")?,
            },
            other => return Err(format!("unknown trace event tag {other}")),
        })
    }
}

/// One rank's ordered event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<TraceEvent>,
}

impl RankTrace {
    /// Total compute flops recorded (sum over `Op` events).
    pub fn flops(&self) -> u64 {
        self.op_kinds().map(|k| k.flops()).sum()
    }

    /// Bytes on the wire: payload bytes of `Collective` events (what the
    /// rank actually put through a communicator).
    pub fn comm_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Collective { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Host↔device staging bytes recorded by `Op` events.
    pub fn transfer_bytes(&self) -> u64 {
        self.op_kinds()
            .filter(|k| matches!(k, EventKind::H2D { .. } | EventKind::D2H { .. }))
            .map(|k| k.bytes())
            .sum()
    }

    /// Number of collective issues recorded.
    pub fn collective_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Collective { .. }))
            .count()
    }

    /// Final cumulative value of every counter, name-sorted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut last: std::collections::BTreeMap<&str, u64> = Default::default();
        for e in &self.events {
            if let TraceEvent::Counter { name, value } = e {
                last.insert(name, *value);
            }
        }
        last.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    fn op_kinds(&self) -> impl Iterator<Item = &EventKind> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Op { kind, .. } => Some(kind),
            _ => None,
        })
    }

    fn to_json_into(&self, out: &mut String) {
        out.push_str(&format!("{{\"rank\":{},\"events\":[", self.rank));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.to_json());
        }
        out.push_str("]}");
    }
}

/// A complete multi-rank trace, ranks in world order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    pub ranks: Vec<RankTrace>,
}

impl Trace {
    /// Deterministic JSON encoding: byte-identical across replays of the
    /// same run (no wall-clock data, no map iteration order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ranks\":[");
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.to_json_into(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Decode the output of [`Trace::to_json`].
    pub fn from_json(s: &str) -> Result<Trace, String> {
        let v = json::parse(s)?;
        let ranks = v
            .get("ranks")
            .and_then(Json::as_arr)
            .ok_or("trace missing \"ranks\" array")?;
        let mut out = Vec::with_capacity(ranks.len());
        for r in ranks {
            let rank = r
                .get("rank")
                .and_then(Json::as_u64)
                .ok_or("rank trace missing \"rank\"")? as usize;
            let events = r
                .get("events")
                .and_then(Json::as_arr)
                .ok_or("rank trace missing \"events\"")?;
            let events = events
                .iter()
                .map(TraceEvent::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            out.push(RankTrace { rank, events });
        }
        Ok(Trace { ranks: out })
    }
}

/// Rebuild a [`Ledger`] from a recorded rank stream so `chase-perfmodel` can
/// price a *live* run with the same machinery it uses for analytic event
/// streams. `Op` events carry the region they were recorded under, so the
/// per-region attribution of the priced profile matches the recording.
pub fn to_ledger(trace: &RankTrace) -> Ledger {
    let mut ledger = Ledger::new();
    for e in &trace.events {
        if let TraceEvent::Op { region, kind } = e {
            ledger.record_in(*region, *kind);
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            ranks: vec![
                RankTrace {
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
                        TraceEvent::Collective {
                            scope: CommScope::World,
                            op: "allreduce".into(),
                            seq: 0,
                            bytes: 64,
                            members: 2,
                        },
                        TraceEvent::Counter {
                            name: "qr_rung_climbs".into(),
                            value: 1,
                        },
                        TraceEvent::SpanEnd {
                            name: "solve".into(),
                        },
                    ],
                },
                RankTrace {
                    rank: 1,
                    events: vec![TraceEvent::Op {
                        region: Region::Qr,
                        kind: EventKind::H2D { bytes: 128 },
                    }],
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_is_stable() {
        let t = sample();
        let s = t.to_json();
        let back = Trace::from_json(&s).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.to_json(), s, "re-encoding must be byte-identical");
    }

    #[test]
    fn rejects_malformed() {
        assert!(Trace::from_json("{}").is_err());
        assert!(Trace::from_json("{\"ranks\":[{\"rank\":0}]}").is_err());
        assert!(
            Trace::from_json("{\"ranks\":[{\"rank\":0,\"events\":[{\"ev\":\"zz\"}]}]}").is_err()
        );
    }

    #[test]
    fn aggregates() {
        let t = sample();
        assert_eq!(t.ranks[0].flops(), 2 * 4 * 5 * 6);
        assert_eq!(t.ranks[0].comm_bytes(), 64);
        assert_eq!(t.ranks[0].collective_count(), 1);
        assert_eq!(t.ranks[1].transfer_bytes(), 128);
        assert_eq!(
            t.ranks[0].counters(),
            vec![("qr_rung_climbs".to_string(), 1)]
        );
    }

    #[test]
    fn ledger_rebuild_prices_ops_only() {
        let t = sample();
        let l = to_ledger(&t.ranks[0]);
        assert_eq!(l.events().len(), 1, "only Op events enter the ledger");
        assert_eq!(l.flops_in(Region::Filter), 240);
    }
}
