//! Versioned plan database: measured tuning decisions persisted as JSON.
//!
//! The format is deliberately simple — one strict, hand-rolled parser (the
//! `chase-trace` JSON reader) and a canonical emitter, so `parse ∘ emit` is
//! the identity and adversarial inputs (truncation, duplicate keys, version
//! skew) surface as typed [`DbError`]s instead of silently corrupting
//! plans. Entries are keyed by machine fingerprint × grid shape ×
//! problem dimensions × scalar, the axes along which tuning decisions
//! actually vary.

use chase_comm::{CollectiveTuneHook, TuneAlgo, TuneChoice, TuneOp};
use chase_trace::fnv1a;
use chase_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt;

/// Current on-disk format version. Parsers reject any other version with
/// [`DbError::VersionSkew`]: plans silently reinterpreted across format
/// changes could pin nonsense schedules. Version 2 dropped version 1's
/// per-entry filter `precision`.
pub const DB_VERSION: u64 = 2;

/// Format tag distinguishing a plan DB from other JSON artifacts.
pub const DB_FORMAT: &str = "chase-plan-db";

/// Typed failures loading a plan database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Malformed or truncated JSON.
    Parse { detail: String },
    /// Parsed fine but is not a plan DB (wrong or missing format tag).
    NotPlanDb { found: String },
    /// A different format version (no silent migration).
    VersionSkew { found: u64, expected: u64 },
    /// Two entries share one canonical key.
    DuplicateKey { key: String },
    /// A field is missing or holds an out-of-domain value.
    Field { field: &'static str, detail: String },
    /// Filesystem failure reading or writing the DB.
    Io { detail: String },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse { detail } => write!(f, "plan db: malformed JSON: {detail}"),
            DbError::NotPlanDb { found } => {
                write!(f, "plan db: not a plan database (format tag '{found}')")
            }
            DbError::VersionSkew { found, expected } => write!(
                f,
                "plan db: version {found} but this build reads {expected}"
            ),
            DbError::DuplicateKey { key } => write!(f, "plan db: duplicate entry for key '{key}'"),
            DbError::Field { field, detail } => write!(f, "plan db: field '{field}': {detail}"),
            DbError::Io { detail } => write!(f, "plan db: {detail}"),
        }
    }
}

impl std::error::Error for DbError {}

/// The axes a tuning decision depends on; the canonical rendering
/// ([`PlanKey::canonical`]) is the DB key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Machine fingerprint (see [`crate::machine_fingerprint`]).
    pub machine: String,
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
    /// Global problem dimension `N`.
    pub n: usize,
    /// Wanted eigenpairs.
    pub nev: usize,
    /// Extra search directions.
    pub nex: usize,
    /// Scalar name: `f32`/`f64`/`c32`/`c64`.
    pub scalar: String,
}

impl PlanKey {
    /// Canonical key string — the BTreeMap key and the `db_key` recorded in
    /// plan provenance.
    pub fn canonical(&self) -> String {
        format!(
            "{}|{}x{}|n={}|nev={}|nex={}|{}",
            self.machine, self.p, self.q, self.n, self.nev, self.nex, self.scalar
        )
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"machine\":\"{}\",\"p\":{},\"q\":{},\"n\":{},\"nev\":{},\"nex\":{},\"scalar\":\"{}\"}}",
            json::escape(&self.machine),
            self.p,
            self.q,
            self.n,
            self.nev,
            self.nex,
            json::escape(&self.scalar)
        )
    }

    fn from_json(v: &Json) -> Result<Self, DbError> {
        Ok(Self {
            machine: str_field(v, "machine")?,
            p: usize_field(v, "p")?,
            q: usize_field(v, "q")?,
            n: usize_field(v, "n")?,
            nev: usize_field(v, "nev")?,
            nex: usize_field(v, "nex")?,
            scalar: str_field(v, "scalar")?,
        })
    }
}

/// One measured collective decision: for `op` over a communicator of
/// `members`, messages up to `max_bytes` run `algo` at `chunk_bytes`
/// granularity. Rules for one `(op, members)` pair partition the size axis;
/// the largest rule also covers everything beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct CollRule {
    pub op: TuneOp,
    pub members: usize,
    pub max_bytes: u64,
    pub algo: TuneAlgo,
    pub chunk_bytes: u64,
    /// Measured per-rank trial time (seconds) of the winning candidate.
    pub measured: f64,
    /// The analytic alpha-beta prediction for the same candidate (the
    /// modeled-vs-measured residual input).
    pub modeled: f64,
}

impl CollRule {
    fn to_json(&self) -> String {
        format!(
            "{{\"op\":\"{}\",\"members\":{},\"max_bytes\":{},\"algo\":\"{}\",\"chunk\":{},\"measured\":{},\"modeled\":{}}}",
            self.op.name(),
            self.members,
            self.max_bytes,
            self.algo.name(),
            self.chunk_bytes,
            fmt_f64(self.measured),
            fmt_f64(self.modeled),
        )
    }

    fn from_json(v: &Json) -> Result<Self, DbError> {
        let op = match str_field(v, "op")?.as_str() {
            "allreduce" => TuneOp::AllReduce,
            "bcast" => TuneOp::Bcast,
            "allgather" => TuneOp::AllGather,
            other => {
                return Err(DbError::Field {
                    field: "op",
                    detail: format!("unknown collective '{other}'"),
                })
            }
        };
        let algo_s = str_field(v, "algo")?;
        let algo = TuneAlgo::parse(&algo_s).ok_or(DbError::Field {
            field: "algo",
            detail: format!("unknown algorithm '{algo_s}'"),
        })?;
        Ok(Self {
            op,
            members: usize_field(v, "members")?,
            max_bytes: u64_field(v, "max_bytes")?,
            algo,
            chunk_bytes: u64_field(v, "chunk")?,
            measured: f64_field(v, "measured")?,
            modeled: f64_field(v, "modeled")?,
        })
    }
}

/// One tuned configuration: the full decision set for a [`PlanKey`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    pub key: PlanKey,
    /// Per-(op, members, size) collective schedule table.
    pub rules: Vec<CollRule>,
    /// Whether the pipelined filter beat the flat one.
    pub overlap: bool,
    /// Winning panel width (meaningful only when `overlap`).
    pub panel: usize,
    /// Measured per-rank cost (seconds) of the tuned components of one
    /// iteration under this entry's decisions.
    pub tuned_cost: f64,
    /// The same components under the `Flat` defaults. The flat path is
    /// always among the trial candidates, so `tuned_cost <= flat_cost`.
    pub flat_cost: f64,
    /// Number of micro-benchmark trials that produced this entry.
    pub trials: u64,
}

/// Installed on a rank, an entry answers the device layer's `Auto` arm per
/// collective call from its measured rules.
impl CollectiveTuneHook for PlanEntry {
    /// Resolve a collective schedule from the rule table: the tightest rule
    /// covering `(op, members, bytes)`, the largest same-`(op, members)`
    /// rule for sizes beyond the measured range, `None` when the table
    /// never measured this `(op, members)` pair at all (the device layer
    /// then falls back to the analytic model).
    fn choose(&self, op: TuneOp, bytes: u64, members: usize) -> Option<TuneChoice> {
        let mut fallback: Option<&CollRule> = None;
        let mut best: Option<&CollRule> = None;
        for r in &self.rules {
            if r.op != op || r.members != members {
                continue;
            }
            if r.max_bytes >= bytes && best.is_none_or(|b| r.max_bytes < b.max_bytes) {
                best = Some(r);
            }
            if fallback.is_none_or(|f| r.max_bytes > f.max_bytes) {
                fallback = Some(r);
            }
        }
        best.or(fallback).map(|r| TuneChoice {
            algo: r.algo,
            chunk_bytes: r.chunk_bytes,
        })
    }
}

impl PlanEntry {
    /// Stable 64-bit content hash of the canonical JSON rendering — what
    /// ranks compare to world-agree on a plan before executing it.
    pub fn content_hash(&self) -> u64 {
        fnv1a(self.to_json().bytes())
    }

    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self.rules.iter().map(CollRule::to_json).collect();
        format!(
            "{{\"key\":{},\"rules\":[{}],\"overlap\":{},\"panel\":{},\"tuned_cost\":{},\"flat_cost\":{},\"trials\":{}}}",
            self.key.to_json(),
            rules.join(","),
            self.overlap,
            self.panel,
            fmt_f64(self.tuned_cost),
            fmt_f64(self.flat_cost),
            self.trials,
        )
    }

    fn from_json(v: &Json) -> Result<Self, DbError> {
        let key = PlanKey::from_json(v.get("key").ok_or(DbError::Field {
            field: "key",
            detail: "missing".into(),
        })?)?;
        let rules_v = v
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or(DbError::Field {
                field: "rules",
                detail: "missing or not an array".into(),
            })?;
        let rules = rules_v
            .iter()
            .map(CollRule::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let overlap = match v.get("overlap") {
            Some(Json::Bool(b)) => *b,
            _ => {
                return Err(DbError::Field {
                    field: "overlap",
                    detail: "missing or not a bool".into(),
                })
            }
        };
        Ok(Self {
            key,
            rules,
            overlap,
            panel: usize_field(v, "panel")?,
            tuned_cost: f64_field(v, "tuned_cost")?,
            flat_cost: f64_field(v, "flat_cost")?,
            trials: u64_field(v, "trials")?,
        })
    }
}

/// The persistent database: canonical-key → entry, emitted in key order so
/// the file is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanDb {
    entries: BTreeMap<String, PlanEntry>,
}

impl PlanDb {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, key: &PlanKey) -> Option<&PlanEntry> {
        self.entries.get(&key.canonical())
    }

    /// Insert (or replace — re-tuning refreshes) an entry.
    pub fn insert(&mut self, entry: PlanEntry) {
        self.entries.insert(entry.key.canonical(), entry);
    }

    pub fn entries(&self) -> impl Iterator<Item = &PlanEntry> {
        self.entries.values()
    }

    /// Canonical JSON rendering; `parse(emit(db)) == db`.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"format\":\"{DB_FORMAT}\",\"version\":{DB_VERSION},\"entries\":[\n"
        ));
        for (i, e) in self.entries.values().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&e.to_json());
        }
        out.push_str("\n]}\n");
        out
    }

    /// Strict parse with typed failures (see [`DbError`]).
    pub fn parse(s: &str) -> Result<Self, DbError> {
        let v = json::parse(s).map_err(|detail| DbError::Parse { detail })?;
        let format = v.get("format").and_then(Json::as_str).unwrap_or("");
        if format != DB_FORMAT {
            return Err(DbError::NotPlanDb {
                found: format.to_string(),
            });
        }
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != DB_VERSION {
            return Err(DbError::VersionSkew {
                found: version,
                expected: DB_VERSION,
            });
        }
        let entries_v = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or(DbError::Field {
                field: "entries",
                detail: "missing or not an array".into(),
            })?;
        let mut db = PlanDb::new();
        for ev in entries_v {
            let e = PlanEntry::from_json(ev)?;
            let key = e.key.canonical();
            if db.entries.contains_key(&key) {
                return Err(DbError::DuplicateKey { key });
            }
            db.entries.insert(key, e);
        }
        Ok(db)
    }

    /// Load from a file; a missing file is an empty database (cold start),
    /// anything else unreadable or unparsable is a typed error.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, DbError> {
        let path = path.as_ref();
        match std::fs::read_to_string(path) {
            Ok(s) => Self::parse(&s),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(DbError::Io {
                detail: format!("{}: {e}", path.display()),
            }),
        }
    }

    /// Persist atomically enough for single-writer use (write + rename).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), DbError> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.emit()).map_err(|e| DbError::Io {
            detail: format!("{}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, path).map_err(|e| DbError::Io {
            detail: format!("{}: {e}", path.display()),
        })
    }
}

/// Emit an f64 so `str::parse::<f64>` round-trips it exactly (Rust's
/// shortest-representation Display guarantees this).
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print without a fraction, which the strict parser
        // reads back as the same f64.
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

fn str_field(v: &Json, field: &'static str) -> Result<String, DbError> {
    v.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(DbError::Field {
            field,
            detail: "missing or not a string".into(),
        })
}

fn u64_field(v: &Json, field: &'static str) -> Result<u64, DbError> {
    v.get(field).and_then(Json::as_u64).ok_or(DbError::Field {
        field,
        detail: "missing or not a non-negative integer".into(),
    })
}

fn usize_field(v: &Json, field: &'static str) -> Result<usize, DbError> {
    u64_field(v, field).map(|x| x as usize)
}

fn f64_field(v: &Json, field: &'static str) -> Result<f64, DbError> {
    match v.get(field) {
        Some(Json::Num(x)) if x.is_finite() => Ok(*x),
        _ => Err(DbError::Field {
            field,
            detail: "missing or not a finite number".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_entry(machine: &str, n: usize) -> PlanEntry {
        PlanEntry {
            key: PlanKey {
                machine: machine.into(),
                p: 2,
                q: 2,
                n,
                nev: 100,
                nex: 40,
                scalar: "c64".into(),
            },
            rules: vec![
                CollRule {
                    op: TuneOp::AllReduce,
                    members: 2,
                    max_bytes: 1 << 20,
                    algo: TuneAlgo::Ring,
                    chunk_bytes: 64 << 10,
                    measured: 1.25e-4,
                    modeled: 1.5e-4,
                },
                CollRule {
                    op: TuneOp::AllReduce,
                    members: 2,
                    max_bytes: u64::MAX,
                    algo: TuneAlgo::Flat,
                    chunk_bytes: 0,
                    measured: 3.0e-4,
                    modeled: 2.5e-4,
                },
            ],
            overlap: true,
            panel: 16,
            tuned_cost: 1.0e-3,
            flat_cost: 2.0e-3,
            trials: 42,
        }
    }

    #[test]
    fn roundtrip_identity() {
        let mut db = PlanDb::new();
        db.insert(sample_entry("jb-1234", 1000));
        db.insert(sample_entry("jb-1234", 2000));
        let parsed = PlanDb::parse(&db.emit()).expect("roundtrip");
        assert_eq!(parsed, db);
    }

    #[test]
    fn rule_lookup_prefers_tightest_bucket() {
        let e = sample_entry("m", 10);
        let c = e.choose(TuneOp::AllReduce, 1 << 10, 2).unwrap();
        assert_eq!(c.algo, TuneAlgo::Ring);
        let c = e.choose(TuneOp::AllReduce, 8 << 20, 2).unwrap();
        assert_eq!(c.algo, TuneAlgo::Flat);
        assert!(e.choose(TuneOp::AllReduce, 1 << 10, 4).is_none());
        assert!(e.choose(TuneOp::Bcast, 1 << 10, 2).is_none());
    }

    #[test]
    fn truncated_input_is_a_parse_error() {
        let mut db = PlanDb::new();
        db.insert(sample_entry("m", 10));
        let full = db.emit();
        let cut = &full[..full.len() / 2];
        assert!(matches!(
            PlanDb::parse(cut),
            Err(DbError::Parse { .. } | DbError::Field { .. })
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        // Version 1 is the format whose entries carried a filter precision.
        for found in [1, 99] {
            let s = format!("{{\"format\":\"{DB_FORMAT}\",\"version\":{found},\"entries\":[]}}");
            assert_eq!(
                PlanDb::parse(&s),
                Err(DbError::VersionSkew {
                    found,
                    expected: DB_VERSION
                })
            );
        }
    }

    #[test]
    fn duplicate_key_is_typed() {
        let e = sample_entry("m", 10).to_json();
        let s = format!(
            "{{\"format\":\"{DB_FORMAT}\",\"version\":{DB_VERSION},\"entries\":[{e},{e}]}}"
        );
        assert!(matches!(
            PlanDb::parse(&s),
            Err(DbError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn wrong_format_tag_is_typed() {
        assert!(matches!(
            PlanDb::parse("{\"format\":\"something-else\",\"version\":1,\"entries\":[]}"),
            Err(DbError::NotPlanDb { .. })
        ));
    }
}
