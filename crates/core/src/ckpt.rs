//! Versioned solver checkpoints: the restart substrate of the elastic
//! rank-failure recovery pipeline (DESIGN.md §15).
//!
//! A [`Snapshot`] captures everything the resumed solve needs to continue
//! bitwise-deterministically on a *different* grid: the iteration cursor,
//! the locked count, Ritz values / residuals / degrees, the refined
//! spectral bounds, and the full global iterate `C` (assembled over the
//! column communicator, so every rank holds it at save time). The local
//! `H` panel is deliberately *not* stored — panels are rebuilt from the
//! deterministic matgen seed on the shrunk grid, which is both smaller on
//! disk and exact.
//!
//! The format follows the plan-DB idiom: one strict hand-rolled JSON
//! parser, a canonical emitter (`parse ∘ emit` is the identity), an FNV-1a
//! checksum over the canonical snapshot body, and typed [`CkptError`]s for
//! every corruption class (truncation, version skew, checksum mismatch).
//! Floating-point payloads are stored as hexadecimal `f64` bit patterns so
//! restores are bitwise and NaN-safe.

use chase_linalg::{Matrix, RealScalar, Scalar, SpectralBounds};
use chase_trace::fnv1a;
use chase_trace::json::{self, Json};
use std::fmt;
use std::path::{Path, PathBuf};

/// Current on-disk format version; loads of any other version are rejected
/// with [`CkptError::VersionSkew`] (a silently-migrated snapshot could
/// resume a solve into nonsense).
pub const CKPT_VERSION: u64 = 1;

/// Format tag distinguishing a checkpoint from other JSON artifacts.
pub const CKPT_FORMAT: &str = "chase-ckpt";

/// Typed failures loading or applying a checkpoint. Adversarial inputs
/// (truncated file, flipped payload digit, foreign version) must each land
/// in their own variant — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Malformed or truncated JSON.
    Parse { detail: String },
    /// Parsed fine but is not a checkpoint (wrong or missing format tag).
    NotCkpt { found: String },
    /// A different format version (no silent migration).
    VersionSkew { found: u64, expected: u64 },
    /// The FNV-1a checksum of the canonical snapshot body does not match
    /// the recorded one: the payload was altered after writing.
    ChecksumMismatch { found: u64, expected: u64 },
    /// A field is missing, malformed, or inconsistent with its siblings.
    Field { field: &'static str, detail: String },
    /// The snapshot is valid but belongs to a different problem (size,
    /// subspace, scalar or seed mismatch) and must not be resumed from.
    ProblemMismatch { detail: String },
    /// Filesystem failure reading or writing.
    Io { detail: String },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Parse { detail } => write!(f, "ckpt: malformed JSON: {detail}"),
            CkptError::NotCkpt { found } => {
                write!(f, "ckpt: not a checkpoint (format tag '{found}')")
            }
            CkptError::VersionSkew { found, expected } => {
                write!(f, "ckpt: version {found} but this build reads {expected}")
            }
            CkptError::ChecksumMismatch { found, expected } => write!(
                f,
                "ckpt: checksum mismatch (file says {found:#018x}, body hashes to {expected:#018x})"
            ),
            CkptError::Field { field, detail } => write!(f, "ckpt: field '{field}': {detail}"),
            CkptError::ProblemMismatch { detail } => {
                write!(f, "ckpt: belongs to a different problem: {detail}")
            }
            CkptError::Io { detail } => write!(f, "ckpt: {detail}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// One solver snapshot, scalar-agnostic: every float is an `f64` bit
/// pattern (`f32` payloads widen exactly on save and narrow exactly on
/// restore), the iterate is split into real and imaginary planes (the
/// imaginary plane is empty for real scalars).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Outer iteration the snapshot was taken *after* (resume starts at
    /// `iter + 1`).
    pub iter: usize,
    /// Locked (converged, deflated) columns at save time.
    pub locked: usize,
    /// Global problem size `N`.
    pub n: usize,
    /// Wanted eigenpairs.
    pub nev: usize,
    /// Subspace width `ne = nev + nex`.
    pub ne: usize,
    /// Scalar tag: `f64`/`c64`/`f32`/`c32`.
    pub scalar: String,
    /// The solve's RNG seed (identity check: a snapshot from a different
    /// matgen/start seed must not silently resume this problem).
    pub seed: u64,
    /// Refined spectral bounds (`mu_1`, `mu_ne`, `b_sup`) as f64 bits.
    pub bounds_bits: [u64; 3],
    /// Ritz values (length `ne`), f64 bits.
    pub ritzv_bits: Vec<u64>,
    /// Residuals (length `ne`), f64 bits.
    pub resd_bits: Vec<u64>,
    /// Chebyshev degrees (length `ne`).
    pub degs: Vec<u64>,
    /// Filter MatVecs accumulated before the snapshot.
    pub matvecs: u64,
    /// A field of the file format from when the filter could run demoted:
    /// the solver writes 0 and a resume ignores it.
    pub lowprec_matvecs: u64,
    /// Real plane of the global `N x ne` iterate, column-major, f64 bits.
    pub c_re_bits: Vec<u64>,
    /// Imaginary plane; empty for real scalars.
    pub c_im_bits: Vec<u64>,
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn hex_arr(vs: &[u64]) -> String {
    let items: Vec<String> = vs.iter().map(|&v| format!("\"{}\"", hex(v))).collect();
    format!("[{}]", items.join(","))
}

fn parse_hex(s: &str, field: &'static str) -> Result<u64, CkptError> {
    u64::from_str_radix(s, 16).map_err(|e| CkptError::Field {
        field,
        detail: format!("bad hex '{s}': {e}"),
    })
}

fn hex_field(v: &Json, field: &'static str) -> Result<u64, CkptError> {
    let s = v
        .get(field)
        .and_then(Json::as_str)
        .ok_or(CkptError::Field {
            field,
            detail: "missing or not a hex string".into(),
        })?;
    parse_hex(s, field)
}

fn hex_arr_field(v: &Json, field: &'static str) -> Result<Vec<u64>, CkptError> {
    let arr = v
        .get(field)
        .and_then(Json::as_arr)
        .ok_or(CkptError::Field {
            field,
            detail: "missing or not an array".into(),
        })?;
    arr.iter()
        .map(|e| {
            e.as_str()
                .ok_or(CkptError::Field {
                    field,
                    detail: "element is not a hex string".into(),
                })
                .and_then(|s| parse_hex(s, field))
        })
        .collect()
}

fn u64_field(v: &Json, field: &'static str) -> Result<u64, CkptError> {
    v.get(field).and_then(Json::as_u64).ok_or(CkptError::Field {
        field,
        detail: "missing or not a non-negative integer".into(),
    })
}

fn u64_arr_field(v: &Json, field: &'static str) -> Result<Vec<u64>, CkptError> {
    let arr = v
        .get(field)
        .and_then(Json::as_arr)
        .ok_or(CkptError::Field {
            field,
            detail: "missing or not an array".into(),
        })?;
    arr.iter()
        .map(|e| {
            e.as_u64().ok_or(CkptError::Field {
                field,
                detail: "element is not a non-negative integer".into(),
            })
        })
        .collect()
}

impl Snapshot {
    /// The scalar tag this build writes for `T`.
    pub fn scalar_tag<T: Scalar>() -> &'static str {
        match (T::IS_COMPLEX, std::mem::size_of::<T::Real>()) {
            (false, 8) => "f64",
            (true, 8) => "c64",
            (false, 4) => "f32",
            (true, 4) => "c32",
            _ => "unknown",
        }
    }

    /// Build a snapshot from solver state. `c_global` is the assembled
    /// `N x ne` iterate (identical on every rank at save time).
    #[allow(clippy::too_many_arguments)]
    pub fn capture<T: Scalar>(
        iter: usize,
        locked: usize,
        nev: usize,
        seed: u64,
        bounds: &SpectralBounds<T::Real>,
        ritzv: &[T::Real],
        resd: &[T::Real],
        degs: &[usize],
        matvecs: u64,
        lowprec_matvecs: u64,
        c_global: &Matrix<T>,
    ) -> Self {
        let ne = ritzv.len();
        let n = c_global.rows();
        let mut c_re_bits = Vec::with_capacity(n * ne);
        let mut c_im_bits = if T::IS_COMPLEX {
            Vec::with_capacity(n * ne)
        } else {
            Vec::new()
        };
        for j in 0..ne {
            for &v in c_global.col(j) {
                c_re_bits.push(v.re().to_f64().to_bits());
                if T::IS_COMPLEX {
                    c_im_bits.push(v.im().to_f64().to_bits());
                }
            }
        }
        Self {
            iter,
            locked,
            n,
            nev,
            ne,
            scalar: Self::scalar_tag::<T>().to_string(),
            seed,
            bounds_bits: [
                bounds.mu_1.to_f64().to_bits(),
                bounds.mu_ne.to_f64().to_bits(),
                bounds.b_sup.to_f64().to_bits(),
            ],
            ritzv_bits: ritzv.iter().map(|r| r.to_f64().to_bits()).collect(),
            resd_bits: resd.iter().map(|r| r.to_f64().to_bits()).collect(),
            degs: degs.iter().map(|&d| d as u64).collect(),
            matvecs,
            lowprec_matvecs,
            c_re_bits,
            c_im_bits,
        }
    }

    /// Reject a snapshot that does not belong to this solve.
    pub fn check_problem<T: Scalar>(
        &self,
        n: usize,
        nev: usize,
        ne: usize,
        seed: u64,
    ) -> Result<(), CkptError> {
        let tag = Self::scalar_tag::<T>();
        if self.n != n || self.nev != nev || self.ne != ne {
            return Err(CkptError::ProblemMismatch {
                detail: format!(
                    "snapshot is n={} nev={} ne={}, solve is n={n} nev={nev} ne={ne}",
                    self.n, self.nev, self.ne
                ),
            });
        }
        if self.scalar != tag {
            return Err(CkptError::ProblemMismatch {
                detail: format!("snapshot scalar {} vs solve scalar {tag}", self.scalar),
            });
        }
        if self.seed != seed {
            return Err(CkptError::ProblemMismatch {
                detail: format!("snapshot seed {:#x} vs solve seed {seed:#x}", self.seed),
            });
        }
        Ok(())
    }

    /// Spectral bounds restored to the solve's real type (exact: the bits
    /// were widened from that type on capture).
    pub fn bounds<R: RealScalar>(&self) -> SpectralBounds<R> {
        SpectralBounds {
            mu_1: R::from_f64_r(f64::from_bits(self.bounds_bits[0])),
            mu_ne: R::from_f64_r(f64::from_bits(self.bounds_bits[1])),
            b_sup: R::from_f64_r(f64::from_bits(self.bounds_bits[2])),
        }
    }

    /// Rebuild the global `N x ne` iterate.
    pub fn c_global<T: Scalar>(&self) -> Result<Matrix<T>, CkptError> {
        let want = self.n * self.ne;
        if self.c_re_bits.len() != want {
            return Err(CkptError::Field {
                field: "c_re",
                detail: format!("{} elements, expected {want}", self.c_re_bits.len()),
            });
        }
        let complex = !self.c_im_bits.is_empty();
        if complex && self.c_im_bits.len() != want {
            return Err(CkptError::Field {
                field: "c_im",
                detail: format!("{} elements, expected {want}", self.c_im_bits.len()),
            });
        }
        let mut m = Matrix::<T>::zeros(self.n, self.ne);
        for j in 0..self.ne {
            for i in 0..self.n {
                let k = j * self.n + i;
                let re = T::Real::from_f64_r(f64::from_bits(self.c_re_bits[k]));
                let im = if complex {
                    T::Real::from_f64_r(f64::from_bits(self.c_im_bits[k]))
                } else {
                    <T::Real as Scalar>::zero()
                };
                m[(i, j)] = T::from_re_im(re, im);
            }
        }
        Ok(m)
    }

    /// Canonical JSON rendering of the snapshot body (the checksum input).
    fn body_json(&self) -> String {
        format!(
            concat!(
                "{{\"iter\":{},\"locked\":{},\"n\":{},\"nev\":{},\"ne\":{},",
                "\"scalar\":\"{}\",\"seed\":\"{}\",\"bounds\":{},",
                "\"ritzv\":{},\"resd\":{},\"degs\":[{}],",
                "\"matvecs\":{},\"lowprec_matvecs\":{},",
                "\"c_re\":{},\"c_im\":{}}}"
            ),
            self.iter,
            self.locked,
            self.n,
            self.nev,
            self.ne,
            json::escape(&self.scalar),
            hex(self.seed),
            hex_arr(&self.bounds_bits),
            hex_arr(&self.ritzv_bits),
            hex_arr(&self.resd_bits),
            self.degs
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.matvecs,
            self.lowprec_matvecs,
            hex_arr(&self.c_re_bits),
            hex_arr(&self.c_im_bits),
        )
    }

    /// Full canonical file rendering: format tag, version, FNV-1a checksum
    /// of the canonical body, then the body.
    pub fn emit(&self) -> String {
        let body = self.body_json();
        let sum = fnv1a(body.bytes());
        format!(
            "{{\"format\":\"{CKPT_FORMAT}\",\"version\":{CKPT_VERSION},\"checksum\":\"{}\",\"snapshot\":{body}}}\n",
            hex(sum)
        )
    }

    /// Strict parse with typed failures for every corruption class.
    pub fn parse(s: &str) -> Result<Self, CkptError> {
        let v = json::parse(s).map_err(|detail| CkptError::Parse { detail })?;
        let format = v.get("format").and_then(Json::as_str).unwrap_or("");
        if format != CKPT_FORMAT {
            return Err(CkptError::NotCkpt {
                found: format.to_string(),
            });
        }
        let version = v.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != CKPT_VERSION {
            return Err(CkptError::VersionSkew {
                found: version,
                expected: CKPT_VERSION,
            });
        }
        let recorded = hex_field(&v, "checksum")?;
        let snap_v = v.get("snapshot").ok_or(CkptError::Field {
            field: "snapshot",
            detail: "missing".into(),
        })?;
        let snap = Self {
            iter: u64_field(snap_v, "iter")? as usize,
            locked: u64_field(snap_v, "locked")? as usize,
            n: u64_field(snap_v, "n")? as usize,
            nev: u64_field(snap_v, "nev")? as usize,
            ne: u64_field(snap_v, "ne")? as usize,
            scalar: snap_v
                .get("scalar")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(CkptError::Field {
                    field: "scalar",
                    detail: "missing or not a string".into(),
                })?,
            seed: hex_field(snap_v, "seed")?,
            bounds_bits: {
                let b = hex_arr_field(snap_v, "bounds")?;
                b.try_into().map_err(|b: Vec<u64>| CkptError::Field {
                    field: "bounds",
                    detail: format!("{} elements, expected 3", b.len()),
                })?
            },
            ritzv_bits: hex_arr_field(snap_v, "ritzv")?,
            resd_bits: hex_arr_field(snap_v, "resd")?,
            degs: u64_arr_field(snap_v, "degs")?,
            matvecs: u64_field(snap_v, "matvecs")?,
            lowprec_matvecs: u64_field(snap_v, "lowprec_matvecs")?,
            c_re_bits: hex_arr_field(snap_v, "c_re")?,
            c_im_bits: hex_arr_field(snap_v, "c_im")?,
        };
        // The canonical re-rendering of what we parsed must hash to the
        // recorded checksum: any altered payload digit re-renders
        // differently and is caught here.
        let actual = fnv1a(snap.body_json().bytes());
        if actual != recorded {
            return Err(CkptError::ChecksumMismatch {
                found: recorded,
                expected: actual,
            });
        }
        if snap.ritzv_bits.len() != snap.ne
            || snap.resd_bits.len() != snap.ne
            || snap.degs.len() != snap.ne
        {
            return Err(CkptError::Field {
                field: "ritzv",
                detail: format!(
                    "per-column arrays must have ne={} elements (got {}/{}/{})",
                    snap.ne,
                    snap.ritzv_bits.len(),
                    snap.resd_bits.len(),
                    snap.degs.len()
                ),
            });
        }
        Ok(snap)
    }

    /// Canonical file name for this snapshot inside a checkpoint directory.
    pub fn file_name(&self) -> String {
        format!("ckpt-{:06}.json", self.iter)
    }

    /// Write atomically (tmp + rename) into `dir`, creating it if needed.
    /// Single-writer: the caller gates this to world rank 0.
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<PathBuf, CkptError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| CkptError::Io {
            detail: format!("{}: {e}", dir.display()),
        })?;
        let path = dir.join(self.file_name());
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.emit()).map_err(|e| CkptError::Io {
            detail: format!("{}: {e}", tmp.display()),
        })?;
        std::fs::rename(&tmp, &path).map_err(|e| CkptError::Io {
            detail: format!("{}: {e}", path.display()),
        })?;
        Ok(path)
    }

    /// Load one checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CkptError> {
        let path = path.as_ref();
        let s = std::fs::read_to_string(path).map_err(|e| CkptError::Io {
            detail: format!("{}: {e}", path.display()),
        })?;
        Self::parse(&s)
    }
}

/// Scan `dir` for `ckpt-*.json` files and return the *latest valid*
/// snapshot (highest iteration that parses and checksums), together with
/// the typed rejections of every newer file that failed — corrupt
/// checkpoints degrade to the previous one, never to a panic. `Ok(None)`
/// when the directory is missing/empty or nothing valid remains.
pub fn load_latest(dir: impl AsRef<Path>) -> Result<Option<Snapshot>, Vec<(PathBuf, CkptError)>> {
    let dir = dir.as_ref();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(None),
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        })
        .collect();
    // Zero-padded iteration numbers sort lexicographically; newest last.
    files.sort();
    let mut rejected = Vec::new();
    for p in files.into_iter().rev() {
        match Snapshot::load(&p) {
            Ok(s) => return Ok(Some(s)),
            Err(e) => rejected.push((p, e)),
        }
    }
    if rejected.is_empty() {
        Ok(None)
    } else {
        Err(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_linalg::C64;

    fn sample<T: Scalar>(iter: usize) -> Snapshot {
        let n = 6;
        let ne = 3;
        let mut c = Matrix::<T>::zeros(n, ne);
        for j in 0..ne {
            for i in 0..n {
                c[(i, j)] = T::from_re_im(
                    T::Real::from_f64_r((i + 10 * j) as f64 * 0.25),
                    T::Real::from_f64_r(if T::IS_COMPLEX { -1.5 } else { 0.0 }),
                );
            }
        }
        Snapshot::capture::<T>(
            iter,
            1,
            2,
            0xC4A53,
            &SpectralBounds {
                mu_1: T::Real::from_f64_r(-2.0),
                mu_ne: T::Real::from_f64_r(0.5),
                b_sup: T::Real::from_f64_r(3.0),
            },
            &[
                T::Real::from_f64_r(-1.9),
                T::Real::from_f64_r(-1.0),
                T::Real::from_f64_r(0.1),
            ],
            &[
                T::Real::from_f64_r(1e-12),
                T::Real::from_f64_r(3e-7),
                T::Real::from_f64_r(0.2),
            ],
            &[0, 14, 20],
            1234,
            56,
            &c,
        )
    }

    #[test]
    fn roundtrip_identity_real_and_complex() {
        for snap in [sample::<f64>(4), sample::<C64>(7)] {
            let parsed = Snapshot::parse(&snap.emit()).expect("roundtrip");
            assert_eq!(parsed, snap);
        }
        // And the iterate itself survives bitwise.
        let snap = sample::<C64>(2);
        let c = snap.c_global::<C64>().unwrap();
        assert_eq!(c[(3, 1)], C64::new(13.0 * 0.25, -1.5));
    }

    #[test]
    fn truncated_file_is_a_typed_parse_error() {
        let full = sample::<f64>(3).emit();
        let cut = &full[..full.len() / 2];
        assert!(matches!(
            Snapshot::parse(cut),
            Err(CkptError::Parse { .. } | CkptError::Field { .. })
        ));
    }

    #[test]
    fn flipped_payload_digit_is_a_checksum_mismatch() {
        let full = sample::<f64>(3).emit();
        // Flip one hex digit inside the ritzv payload (keeps valid JSON).
        let at = full.find("\"ritzv\":[\"").expect("ritzv field") + "\"ritzv\":[\"".len();
        let orig = full.as_bytes()[at] as char;
        let flip = if orig == '0' { '1' } else { '0' };
        let mut bytes = full.into_bytes();
        bytes[at] = flip as u8;
        let tampered = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            Snapshot::parse(&tampered),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_skew_is_typed() {
        let skewed = sample::<f64>(3)
            .emit()
            .replace("\"version\":1,", "\"version\":99,");
        assert_eq!(
            Snapshot::parse(&skewed),
            Err(CkptError::VersionSkew {
                found: 99,
                expected: CKPT_VERSION
            })
        );
    }

    #[test]
    fn wrong_format_tag_is_typed() {
        assert!(matches!(
            Snapshot::parse("{\"format\":\"chase-plan-db\",\"version\":1}"),
            Err(CkptError::NotCkpt { .. })
        ));
    }

    #[test]
    fn problem_mismatch_is_typed() {
        let snap = sample::<f64>(3);
        assert!(snap.check_problem::<f64>(6, 2, 3, 0xC4A53).is_ok());
        assert!(matches!(
            snap.check_problem::<f64>(8, 2, 3, 0xC4A53),
            Err(CkptError::ProblemMismatch { .. })
        ));
        assert!(matches!(
            snap.check_problem::<C64>(6, 2, 3, 0xC4A53),
            Err(CkptError::ProblemMismatch { .. })
        ));
        assert!(matches!(
            snap.check_problem::<f64>(6, 2, 3, 99),
            Err(CkptError::ProblemMismatch { .. })
        ));
    }

    #[test]
    fn load_latest_skips_corrupt_newer_files() {
        let dir = std::env::temp_dir().join(format!("chase-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(load_latest(&dir), Ok(None));

        let old = sample::<f64>(2);
        let newer = sample::<f64>(5);
        old.save(&dir).unwrap();
        let newer_path = newer.save(&dir).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().iter, 5);

        // Truncate the newest: the scan must fall back to iter 2.
        std::fs::write(&newer_path, &newer.emit()[..100]).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().iter, 2);

        // Corrupt both: typed rejections, no panic, no snapshot.
        let old_path = dir.join(old.file_name());
        std::fs::write(&old_path, "{\"format\":\"chase-ckpt\",\"version\":99}").unwrap();
        let rejected = load_latest(&dir).unwrap_err();
        assert_eq!(rejected.len(), 2);
        assert!(rejected
            .iter()
            .any(|(_, e)| matches!(e, CkptError::VersionSkew { found: 99, .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
