//! Line-oriented workload files for `chase serve` / `chase submit`.
//!
//! One job per line, `#` comments and blank lines ignored:
//!
//! ```text
//! # file-backed job
//! job name=scf0 matrix=h.chasemat nev=8 nex=4 session=scf step=0
//! # generated job: a synthetic SCF chain member (deterministic in the spec)
//! gen name=scf1 n=96 spectrum=dft gseed=3 perturb=1 eps=1e-3 nev=8 session=scf step=1
//! ```
//!
//! Shared keys: `name=` (required, unique), `nev=` (required), `nex=`,
//! `tol=`, `session=` + `step=`, `grid=PxQ`, `seed=` (solver start seed),
//! `inject=SPEC` (deterministic fault campaign, same grammar as
//! `chase solve --inject`), `refilter=N` (recovery re-filter budget; 0 makes
//! an injected corruption fatal — useful for isolation drills).
//! `job` lines add `matrix=FILE`; `gen` lines add `n=`, `spectrum=`,
//! `gseed=`, `perturb=STEPS`, `eps=`.
//!
//! Parsing is order-preserving but the scheduler's plan is not order
//! *dependent*: shuffling the lines changes nothing about the results.

use crate::job::{GenSpec, JobSpec, MatrixSource, SpectrumKind};
use chase_comm::GridShape;
use chase_core::Params;
use chase_linalg::{Matrix, C64};
use chase_matgen::io::{load, LoadedMatrix};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn parse_kv(line: &str) -> Result<HashMap<String, String>, String> {
    let mut kv = HashMap::new();
    for tok in line.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{tok}'"))?;
        if kv.insert(k.to_string(), v.to_string()).is_some() {
            return Err(format!("duplicate key '{k}'"));
        }
    }
    Ok(kv)
}

fn take<T: std::str::FromStr>(
    kv: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match kv.get(key) {
        Some(v) => v.parse().map_err(|_| format!("{key}: cannot parse '{v}'")),
        None => default.ok_or_else(|| format!("missing required {key}=")),
    }
}

/// Matrices loaded once per path and shared across jobs via `Arc`.
#[derive(Default)]
struct FileCache {
    loaded: BTreeMap<String, Arc<Matrix<C64>>>,
}

impl FileCache {
    fn get(&mut self, path: &str) -> Result<Arc<Matrix<C64>>, String> {
        if let Some(m) = self.loaded.get(path) {
            return Ok(m.clone());
        }
        let m = match load(path).map_err(|e| format!("{path}: {e}"))? {
            LoadedMatrix::C64(h) => h,
            // Real matrices promote losslessly; the serve path is uniformly
            // complex so every session can share one cache.
            LoadedMatrix::F64(h) => {
                Matrix::from_fn(h.rows(), h.cols(), |i, j| C64::new(h.col(j)[i], 0.0))
            }
        };
        let arc = Arc::new(m);
        self.loaded.insert(path.to_string(), arc.clone());
        Ok(arc)
    }
}

fn parse_job_line(
    kind: &str,
    kv: &HashMap<String, String>,
    files: &mut FileCache,
) -> Result<JobSpec<C64>, String> {
    let known: &[&str] = match kind {
        "job" => &[
            "name", "matrix", "nev", "nex", "tol", "session", "step", "grid", "seed", "inject",
            "refilter",
        ],
        "gen" => &[
            "name", "n", "spectrum", "gseed", "perturb", "eps", "nev", "nex", "tol", "session",
            "step", "grid", "seed", "inject", "refilter",
        ],
        other => return Err(format!("unknown line kind '{other}' (job|gen)")),
    };
    for k in kv.keys() {
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown key '{k}' for a '{kind}' line"));
        }
    }

    let name: String = take(kv, "name", None)?;
    let matrix = match kind {
        "job" => {
            let path: String = take(kv, "matrix", None)?;
            MatrixSource::InMemory(files.get(&path)?)
        }
        _ => {
            let n: usize = take(kv, "n", None)?;
            let spectrum: SpectrumKind = take(kv, "spectrum", None)?;
            MatrixSource::Generated(GenSpec {
                n,
                spectrum,
                seed: take(kv, "gseed", Some(42))?,
                perturb_steps: take(kv, "perturb", Some(0))?,
                eps: take(kv, "eps", Some(1e-3))?,
            })
        }
    };

    let nev: usize = take(kv, "nev", None)?;
    let nex: usize = take(kv, "nex", Some(nev.div_ceil(2).max(2)))?;
    let n = matrix.n();
    if nev.checked_add(nex).is_none_or(|ne| ne > n) {
        return Err(format!(
            "job '{name}': search space nev {nev} + nex {nex} exceeds matrix size {n}"
        ));
    }
    let mut params = Params::new(nev, nex);
    params.tol = take(kv, "tol", Some(1e-10))?;
    params.seed = take(kv, "seed", Some(params.seed))?;
    if let Some(spec) = kv.get("inject") {
        params.inject = Some(
            spec.parse::<chase_faults::FaultSpec>()
                .map_err(|e| format!("job '{name}': inject: {e}"))?,
        );
    }
    params.max_refilter = take(kv, "refilter", Some(params.max_refilter))?;

    let mut spec = JobSpec::new(name.clone(), matrix, params);
    if let Some(g) = kv.get("grid") {
        spec.grid = g
            .parse::<GridShape>()
            .map_err(|e| format!("job '{name}': {e}"))?;
    }
    match (kv.get("session"), kv.get("step")) {
        (Some(sid), step) => {
            let step: usize = match step {
                Some(s) => s.parse().map_err(|_| format!("job '{name}': bad step"))?,
                None => 0,
            };
            spec = spec.in_session(sid.clone(), step);
        }
        (None, Some(_)) => {
            return Err(format!("job '{name}': step= requires session="));
        }
        (None, None) => {}
    }
    Ok(spec)
}

/// Parse a workload file body into job specs (line numbers in errors).
pub fn parse_workload(text: &str) -> Result<Vec<JobSpec<C64>>, String> {
    let mut files = FileCache::default();
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let kv = parse_kv(rest).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let spec = parse_job_line(kind, &kv, &mut files)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        jobs.push(spec);
    }
    Ok(jobs)
}

/// Validate a single workload line (as `chase submit` appends it). Performs
/// the full parse, including loading a `matrix=` file.
pub fn validate_line(line: &str) -> Result<JobSpec<C64>, String> {
    let jobs = parse_workload(line)?;
    match jobs.len() {
        1 => Ok(jobs.into_iter().next().unwrap()),
        0 => Err("line is empty or a comment".into()),
        _ => Err("expected exactly one job line".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_gen_lines_with_sessions() {
        let text = "\
# two-step synthetic chain plus a standalone
gen name=s0 n=48 spectrum=dft gseed=7 nev=6 session=scf step=0
gen name=s1 n=48 spectrum=dft gseed=7 perturb=1 eps=1e-3 nev=6 session=scf step=1
gen name=solo n=32 spectrum=uniform nev=4 grid=2x1 seed=5
";
        let jobs = parse_workload(text).unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(jobs[0].session.as_ref().unwrap().id, "scf");
        assert_eq!(jobs[1].session.as_ref().unwrap().step, 1);
        assert_eq!(jobs[2].grid, GridShape::new(2, 1));
        assert_eq!(jobs[2].params.seed, 5);
        assert!(jobs[2].session.is_none());
    }

    #[test]
    fn inject_spec_round_trips() {
        let line = "gen name=f n=32 spectrum=uniform nev=4 inject=seed=5;breakdown@iter=1,cols=2";
        let spec = validate_line(line).unwrap();
        assert!(spec.params.inject.is_some());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_shapes() {
        assert!(parse_workload("job name=a nev=2")
            .unwrap_err()
            .contains("matrix"));
        assert!(
            parse_workload("gen name=a n=8 spectrum=uniform nev=2 bogus=1")
                .unwrap_err()
                .contains("bogus")
        );
        assert!(parse_workload("gen name=a n=8 spectrum=uniform nev=40")
            .unwrap_err()
            .contains("exceeds"));
        assert!(
            parse_workload("gen name=a n=8 spectrum=uniform nev=18446744073709551615 nex=2")
                .unwrap_err()
                .contains("exceeds")
        );
        assert!(
            parse_workload("gen name=a n=8 spectrum=uniform nev=2 step=1")
                .unwrap_err()
                .contains("session")
        );
    }

    #[test]
    fn a_grid_without_ranks_is_that_lines_error_not_a_panic() {
        let text = "\
gen name=ok n=32 spectrum=uniform nev=4 grid=2x1
gen name=bad n=32 spectrum=uniform nev=4 grid=0x2
";
        let err = parse_workload(text).unwrap_err();
        assert!(err.starts_with("line 2: job 'bad': grid '0x2'"), "{err}");
        let err = validate_line("gen name=bad n=32 spectrum=uniform nev=4 grid=2").unwrap_err();
        assert!(err.contains("must look like PxQ"), "{err}");
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let jobs = parse_workload("\n# nothing\n\n").unwrap();
        assert!(jobs.is_empty());
    }
}
