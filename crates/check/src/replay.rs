//! Witness files: the serialized form of a minimized schedule violation,
//! consumable by `chase check --replay` and [`replay`].
//!
//! The format is line-oriented text (one `case` header, one `canary`
//! line, one `perm` line per pinned schedule point) so a witness is
//! readable in a bug report and diffable in version control:
//!
//! ```text
//! # chase-check witness v1
//! case scalar=f64 grid=2x2 overlap=off plan=off n=32 nev=4 nex=3 tol=0.00000001 pseed=7
//! canary on
//! perm scope=world stream=blk op=allreduce seq=12 order=1,0,2,3
//! ```

use crate::config::{CheckCase, ScalarKind};
use crate::harness::{run_case, Fingerprint};
use crate::policy::{ExplicitSchedule, MemberOrder, PointId};
use chase_comm::ScheduleStream;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

pub const WITNESS_HEADER: &str = "# chase-check witness v1";

/// A minimal reproducing schedule: the case it ran, whether the mutation
/// canary was armed, and the permutations to pin (all other points gate in
/// identity order, making the replay fully deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    pub case: CheckCase,
    pub canary: bool,
    pub perms: BTreeMap<PointId, Vec<usize>>,
}

impl Witness {
    pub fn new(case: CheckCase, canary: bool, perms: BTreeMap<PointId, Vec<usize>>) -> Self {
        Self {
            case,
            canary,
            perms,
        }
    }

    /// The replay policy this witness describes.
    pub fn policy(&self) -> ExplicitSchedule {
        ExplicitSchedule::new(self.perms.clone())
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{WITNESS_HEADER}")?;
        writeln!(f, "case {}", self.case)?;
        writeln!(f, "canary {}", if self.canary { "on" } else { "off" })?;
        for (id, perm) in &self.perms {
            let order: Vec<String> = perm.iter().map(|m| m.to_string()).collect();
            writeln!(
                f,
                "perm scope={} stream={} op={} seq={} order={}",
                id.scope,
                id.stream.token(),
                id.op,
                id.seq,
                order.join(",")
            )?;
        }
        Ok(())
    }
}

fn fields(line: &str) -> Result<BTreeMap<&str, &str>, String> {
    line.split_whitespace()
        .map(|kv| {
            kv.split_once('=')
                .ok_or_else(|| format!("expected key=value, got {kv:?}"))
        })
        .collect()
}

fn field<'a>(map: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    map.get(key)
        .copied()
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn parse_case(rest: &str) -> Result<CheckCase, String> {
    let map = fields(rest)?;
    let scalar_tok = field(&map, "scalar")?;
    let scalar = ScalarKind::from_token(scalar_tok)
        .ok_or_else(|| format!("unknown scalar {scalar_tok:?}"))?;
    let grid: chase_comm::GridShape = field(&map, "grid")?.parse()?;
    let on_off = |key: &str| -> Result<bool, String> {
        match field(&map, key)? {
            "on" => Ok(true),
            "off" => Ok(false),
            other => Err(format!("invalid {key}: {other:?}")),
        }
    };
    Ok(CheckCase {
        scalar,
        grid: (grid.p, grid.q),
        overlap: on_off("overlap")?,
        plan: on_off("plan")?,
        n: parse_num(field(&map, "n")?, "n")?,
        nev: parse_num(field(&map, "nev")?, "nev")?,
        nex: parse_num(field(&map, "nex")?, "nex")?,
        tol: parse_num(field(&map, "tol")?, "tol")?,
        pseed: parse_num(field(&map, "pseed")?, "pseed")?,
    })
}

fn parse_perm(rest: &str) -> Result<(PointId, Vec<usize>), String> {
    let map = fields(rest)?;
    let stream_tok = field(&map, "stream")?;
    let stream = ScheduleStream::from_token(stream_tok)
        .ok_or_else(|| format!("unknown stream {stream_tok:?}"))?;
    let order: Vec<usize> = field(&map, "order")?
        .split(',')
        .map(|m| parse_num(m, "order member"))
        .collect::<Result<_, _>>()?;
    if order.is_empty() {
        return Err("empty order".into());
    }
    Ok((
        PointId {
            scope: field(&map, "scope")?.to_string(),
            stream,
            op: field(&map, "op")?.to_string(),
            seq: parse_num(field(&map, "seq")?, "seq")?,
        },
        order,
    ))
}

impl FromStr for Witness {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut case = None;
        let mut canary = None;
        let mut perms = BTreeMap::new();
        for (ln, raw) in s.lines().enumerate() {
            let line = raw.trim();
            let err = |e: String| format!("witness line {}: {e}", ln + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("case ") {
                case = Some(parse_case(rest).map_err(err)?);
            } else if let Some(rest) = line.strip_prefix("canary ") {
                canary = Some(match rest.trim() {
                    "on" => true,
                    "off" => false,
                    other => return Err(err(format!("invalid canary {other:?}"))),
                });
            } else if let Some(rest) = line.strip_prefix("perm ") {
                let (id, order) = parse_perm(rest).map_err(err)?;
                perms.insert(id, order);
            } else {
                return Err(err(format!("unrecognized line {line:?}")));
            }
        }
        Ok(Witness {
            case: case.ok_or("witness has no `case` line")?,
            canary: canary.ok_or("witness has no `canary` line")?,
            perms,
        })
    }
}

/// Re-run a witness deterministically. Returns `Some(diff)` when the
/// pinned schedule still diverges from the reference (the violation
/// reproduces) and `None` when it no longer does.
///
/// The reference matches the one the witness was minimized against: the
/// free-running run for correct code, the identity-gated run when the
/// canary is armed (free-running canary runs are racy).
pub fn replay(w: &Witness) -> Option<String> {
    let reference: Fingerprint = if w.canary {
        run_case(&w.case, Some(Arc::new(MemberOrder)), true)
    } else {
        run_case(&w.case, None, false)
    };
    let fp = run_case(&w.case, Some(Arc::new(w.policy())), w.canary);
    reference.first_divergence(&fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::ScheduleStream;

    fn witness() -> Witness {
        let mut perms = BTreeMap::new();
        perms.insert(
            PointId {
                scope: "world".into(),
                stream: ScheduleStream::Blocking,
                op: "allreduce".into(),
                seq: 12,
            },
            vec![1, 0, 2, 3],
        );
        perms.insert(
            PointId {
                scope: "row".into(),
                stream: ScheduleStream::Nonblocking,
                op: "iallreduce".into(),
                seq: 3,
            },
            vec![1, 0],
        );
        Witness::new(
            CheckCase::new(ScalarKind::C64, (2, 2), true).with_plan(false),
            true,
            perms,
        )
    }

    #[test]
    fn witness_round_trips_through_text() {
        let w = witness();
        let text = w.to_string();
        assert!(text.starts_with(WITNESS_HEADER), "{text}");
        let back: Witness = text.parse().expect("round-trip parse");
        assert_eq!(back, w);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Witness::from_str("case scalar=f64").is_err());
        assert!(Witness::from_str("bogus line").is_err());
        let missing_canary =
            "case scalar=f64 grid=1x1 overlap=off plan=off n=8 nev=2 nex=1 tol=1e-6 pseed=1";
        assert!(Witness::from_str(missing_canary)
            .unwrap_err()
            .contains("canary"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!("\n# comment\n\n{}\n# trailing\n", witness());
        assert_eq!(text.parse::<Witness>().unwrap(), witness());
    }
}
