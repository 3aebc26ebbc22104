//! Instrumentation ledger: every compute kernel, collective operation and
//! host↔device transfer performed by a rank is recorded here.
//!
//! The ledger is the bridge between the *functional* runtime (threads doing
//! real math) and the *performance* reproduction: `chase-perfmodel` converts
//! the recorded events into modeled seconds on the paper's machine
//! (JUWELS-Booster, 4×A100 per node), split into the computation /
//! communication / data-movement categories of Fig. 2.

use crate::json::{self, Json};

/// Which ChASE kernel an event belongs to (the four bars of Fig. 2, plus
/// Lanczos and a catch-all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    Lanczos,
    Filter,
    Qr,
    RayleighRitz,
    Residuals,
    Other,
}

impl Region {
    /// The four regions profiled in Fig. 2 of the paper.
    pub const PROFILED: [Region; 4] = [
        Region::Filter,
        Region::Qr,
        Region::RayleighRitz,
        Region::Residuals,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Region::Lanczos => "Lanczos",
            Region::Filter => "Filter",
            Region::Qr => "QR",
            Region::RayleighRitz => "Rayleigh-Ritz",
            Region::Residuals => "Residuals",
            Region::Other => "Other",
        }
    }

    pub fn parse_name(name: &str) -> Option<Region> {
        Some(match name {
            "Lanczos" => Region::Lanczos,
            "Filter" => Region::Filter,
            "QR" => Region::Qr,
            "Rayleigh-Ritz" => Region::RayleighRitz,
            "Residuals" => Region::Residuals,
            "Other" => Region::Other,
            _ => return None,
        })
    }
}

/// Cost category, matching the three color groups of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Green bars: local kernel execution.
    Compute,
    /// Red bars: collective communication.
    Comm,
    /// Blue bars: host↔device staging copies.
    Transfer,
}

/// Physical link class a point-to-point hop crosses, as assigned by the
/// `chase-topo` topology model: NVLink within a node, InfiniBand between
/// nodes. Pricing of a hop depends on both the link and whether the backend
/// stages through host memory (`chase-perfmodel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Intra-node GPU-to-GPU link (NVLink3 on JUWELS-Booster).
    NvLink,
    /// Inter-node link (4x HDR-200 InfiniBand per node).
    Ib,
}

impl LinkClass {
    pub fn name(self) -> &'static str {
        match self {
            LinkClass::NvLink => "NvLink",
            LinkClass::Ib => "IB",
        }
    }

    pub fn parse_name(name: &str) -> Option<LinkClass> {
        Some(match name {
            "NvLink" => LinkClass::NvLink,
            "IB" => LinkClass::Ib,
            _ => return None,
        })
    }
}

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// General matrix multiply with `2 m n k` scalar fused multiply-adds.
    Gemm { m: u64, n: u64, k: u64 },
    /// Gram/HERK update (`m` rows, `n` columns -> `n x n` output).
    Herk { m: u64, n: u64 },
    /// Cholesky factorization of an `n x n` matrix.
    Potrf { n: u64 },
    /// Triangular solve of an `m x n` block.
    Trsm { m: u64, n: u64 },
    /// Dense Hermitian eigensolve of an `n x n` matrix.
    Heevd { n: u64 },
    /// Householder QR of an `m x n` block.
    HhQr { m: u64, n: u64 },
    /// BLAS-1 style streaming op over `n` elements.
    Blas1 { n: u64 },
    /// Host-to-device copy.
    H2D { bytes: u64 },
    /// Device-to-host copy.
    D2H { bytes: u64 },
    /// Sum-allreduce over `members` ranks of a `bytes`-sized payload.
    AllReduce { bytes: u64, members: u64 },
    /// Broadcast of a `bytes`-sized payload to `members` ranks.
    Bcast { bytes: u64, members: u64 },
    /// Allgather contributing `bytes_per_rank` from each of `members` ranks.
    AllGather { bytes_per_rank: u64, members: u64 },
    /// Synchronization barrier.
    Barrier { members: u64 },
    /// One point-to-point message of a topology-aware collective: `bytes`
    /// over one `link`. The per-hop unit `chase-perfmodel` prices when a
    /// collective runs as an explicit ring/tree/doubling hop sequence
    /// instead of a flat formula.
    P2p { bytes: u64, link: LinkClass },
    /// Elastic recovery: the grid was rebuilt over the survivors after a
    /// rank death (agreement round + communicator reconstruction).
    GridShrink { from_ranks: u64, to_ranks: u64 },
    /// Elastic recovery: block-cyclic panels of `H` and the iterate
    /// re-materialized on the shrunk grid (lost panels rebuilt from the
    /// deterministic generator, survivors' blocks re-sliced).
    Redistribute { bytes: u64 },
}

impl EventKind {
    pub fn category(&self) -> Category {
        match self {
            EventKind::Gemm { .. }
            | EventKind::Herk { .. }
            | EventKind::Potrf { .. }
            | EventKind::Trsm { .. }
            | EventKind::Heevd { .. }
            | EventKind::HhQr { .. }
            | EventKind::Blas1 { .. } => Category::Compute,
            EventKind::H2D { .. } | EventKind::D2H { .. } => Category::Transfer,
            EventKind::AllReduce { .. }
            | EventKind::Bcast { .. }
            | EventKind::AllGather { .. }
            | EventKind::Barrier { .. }
            | EventKind::P2p { .. }
            | EventKind::GridShrink { .. }
            | EventKind::Redistribute { .. } => Category::Comm,
        }
    }

    /// Floating-point operations for compute events (complex-double flops for
    /// the scalar-agnostic ledger are counted as real flop *pairs*; the
    /// machine model applies the per-scalar multiplier).
    pub fn flops(&self) -> u64 {
        match *self {
            EventKind::Gemm { m, n, k } => 2 * m * n * k,
            EventKind::Herk { m, n } => m * n * (n + 1),
            EventKind::Potrf { n } => n * n * n / 3,
            EventKind::Trsm { m, n } => m * n * n,
            EventKind::Heevd { n } => 9 * n * n * n,
            EventKind::HhQr { m, n } => 2 * m * n * n,
            EventKind::Blas1 { n } => 2 * n,
            _ => 0,
        }
    }

    /// Bytes moved for transfer/communication events.
    pub fn bytes(&self) -> u64 {
        match *self {
            EventKind::H2D { bytes } | EventKind::D2H { bytes } => bytes,
            EventKind::AllReduce { bytes, .. } | EventKind::Bcast { bytes, .. } => bytes,
            EventKind::AllGather {
                bytes_per_rank,
                members,
            } => bytes_per_rank * members,
            EventKind::P2p { bytes, .. } => bytes,
            EventKind::Redistribute { bytes } => bytes,
            _ => 0,
        }
    }
}

/// Microseconds since the first timestamp taken by this process. A single
/// process-wide clock keeps spans from different rank threads comparable, so
/// overlap between one rank's compute and another's collective is visible.
pub fn now_us() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// A recorded event with its kernel region, overlap window and wall span.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub kind: EventKind,
    pub region: Region,
    /// Overlap window this event belongs to, if any. Events sharing a window
    /// ran concurrently by construction (a pipelined filter step), so the
    /// overlap-aware pricing charges `max(compute, comm)` per window instead
    /// of the sum.
    pub window: Option<u32>,
    /// Wall-clock begin of the operation ([`now_us`] timebase). Equal to
    /// `t1_us` for instantaneous records; a nonblocking collective spans
    /// post..wait so the overlap with compute is observable.
    pub t0_us: u64,
    /// Wall-clock end of the operation.
    pub t1_us: u64,
}

impl Event {
    /// Event stamped "now" with no overlap window (the common case).
    pub fn new(kind: EventKind, region: Region) -> Self {
        let t = now_us();
        Self {
            kind,
            region,
            window: None,
            t0_us: t,
            t1_us: t,
        }
    }

    /// Wall span in microseconds (zero for instantaneous records).
    pub fn span_us(&self) -> u64 {
        self.t1_us.saturating_sub(self.t0_us)
    }
}

/// Per-rank event log.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    events: Vec<Event>,
    region: Option<Region>,
    window: Option<u32>,
    next_window: u32,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            events: Vec::new(),
            region: None,
            window: None,
            next_window: 0,
        }
    }

    /// Set the kernel region subsequent events are attributed to.
    pub fn set_region(&mut self, region: Region) {
        self.region = Some(region);
    }

    pub fn clear_region(&mut self) {
        self.region = None;
    }

    /// Open a new overlap window: subsequent events are tagged with its id
    /// until [`Ledger::end_window`]. Returns the window id.
    pub fn begin_window(&mut self) -> u32 {
        let w = self.next_window;
        self.next_window += 1;
        self.window = Some(w);
        w
    }

    pub fn end_window(&mut self) {
        self.window = None;
    }

    pub fn current_window(&self) -> Option<u32> {
        self.window
    }

    /// Region subsequent events are attributed to, if one is set.
    pub fn current_region(&self) -> Option<Region> {
        self.region
    }

    pub fn record(&mut self, kind: EventKind) {
        let region = self.region.unwrap_or(Region::Other);
        self.events.push(Event {
            window: self.window,
            ..Event::new(kind, region)
        });
    }

    pub fn record_in(&mut self, region: Region, kind: EventKind) {
        self.events.push(Event::new(kind, region));
    }

    /// Record into an explicit region *and* overlap window (analytic event
    /// streams mirror the live pipelined filter through this).
    pub fn record_in_window(&mut self, region: Region, kind: EventKind, window: Option<u32>) {
        self.events.push(Event {
            window,
            ..Event::new(kind, region)
        });
    }

    /// Record an operation that began at `t0_us` and finishes now (the span
    /// of a nonblocking collective between its post and its wait).
    pub fn record_spanned(&mut self, kind: EventKind, t0_us: u64) {
        let region = self.region.unwrap_or(Region::Other);
        self.events.push(Event {
            kind,
            region,
            window: self.window,
            t0_us,
            t1_us: now_us().max(t0_us),
        });
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Total bytes in a category (Comm counts payload bytes; AllGather counts
    /// the full gathered volume).
    pub fn bytes_in(&self, category: Category) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind.category() == category)
            .map(|e| e.kind.bytes())
            .sum()
    }

    /// Total compute flops attributed to a region.
    pub fn flops_in(&self, region: Region) -> u64 {
        self.events
            .iter()
            .filter(|e| e.region == region)
            .map(|e| e.kind.flops())
            .sum()
    }

    /// Number of collective calls (message count — the quantity whose growth
    /// harmed ChASE v1.2's weak scaling, Section 2.3).
    pub fn collective_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::AllReduce { .. }
                        | EventKind::Bcast { .. }
                        | EventKind::AllGather { .. }
                )
            })
            .count()
    }

    /// Merge another ledger's events (used when aggregating sub-phases).
    pub fn absorb(&mut self, other: &Ledger) {
        self.events.extend_from_slice(other.events());
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Clone of the events recorded at or after index `from` — slices an
    /// accumulating per-rank ledger into per-run sub-ledgers (benchmark
    /// harnesses interleave variants on one grid and attribute events
    /// afterwards).
    pub fn since(&self, from: usize) -> Ledger {
        Ledger {
            events: self.events[from.min(self.events.len())..].to_vec(),
            region: self.region,
            window: None,
            next_window: self.next_window,
        }
    }

    /// Total wall-clock microseconds during which a Comm event's span
    /// intersects a Compute event's span, summed over pairs. Strictly
    /// positive exactly when a collective was in flight while a kernel ran —
    /// the observable signature of the overlapped filter pipeline.
    pub fn comm_compute_overlap_us(&self) -> u64 {
        let mut total = 0u64;
        for c in self
            .events
            .iter()
            .filter(|e| e.kind.category() == Category::Comm && e.span_us() > 0)
        {
            for g in self
                .events
                .iter()
                .filter(|e| e.kind.category() == Category::Compute)
            {
                let lo = c.t0_us.max(g.t0_us);
                let hi = c.t1_us.min(g.t1_us.max(g.t0_us));
                total += hi.saturating_sub(lo);
                // Instantaneous compute stamps inside the collective's span
                // still witness overlap; count them as one tick.
                if g.t0_us == g.t1_us && g.t0_us >= c.t0_us && g.t0_us <= c.t1_us {
                    total += 1;
                }
            }
        }
        total
    }

    /// JSON encoding of the event log: an array of flat objects, one per
    /// event, e.g. `{"region":"Filter","kind":"Gemm","m":4,"n":5,"k":6}`.
    /// [`Ledger::from_json`] round-trips exactly this format.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self.events.iter().map(event_to_json).collect();
        format!("[{}]", items.join(","))
    }

    /// Parse a ledger from the output of [`Ledger::to_json`].
    pub fn from_json(s: &str) -> Result<Ledger, String> {
        let doc = json::parse(s)?;
        let events = doc
            .as_arr()
            .ok_or("ledger JSON must be an array")?
            .iter()
            .map(event_from_json)
            .collect::<Result<_, _>>()?;
        Ok(Ledger {
            events,
            ..Ledger::new()
        })
    }
}

fn event_to_json(ev: &Event) -> String {
    let region = ev.region.name();
    let kind = kind_to_json(&ev.kind);
    // Optional fields are emitted only when informative so ledgers from
    // analytic streams (no clock, no windows) keep the compact encoding.
    let mut extra = String::new();
    if let Some(w) = ev.window {
        extra.push_str(&format!(",\"win\":{w}"));
    }
    if ev.t0_us != 0 || ev.t1_us != 0 {
        extra.push_str(&format!(",\"t0\":{},\"t1\":{}", ev.t0_us, ev.t1_us));
    }
    format!("{{\"region\":\"{region}\",{kind}{extra}}}")
}

/// Flat JSON fields for an event kind (no surrounding braces), e.g.
/// `"kind":"Gemm","m":4,"n":5,"k":6`. Shared with the `chase-trace` encoder
/// so both serialize kernel shapes identically.
pub fn kind_to_json(kind: &EventKind) -> String {
    match *kind {
        EventKind::Gemm { m, n, k } => format!("\"kind\":\"Gemm\",\"m\":{m},\"n\":{n},\"k\":{k}"),
        EventKind::Herk { m, n } => format!("\"kind\":\"Herk\",\"m\":{m},\"n\":{n}"),
        EventKind::Potrf { n } => format!("\"kind\":\"Potrf\",\"n\":{n}"),
        EventKind::Trsm { m, n } => format!("\"kind\":\"Trsm\",\"m\":{m},\"n\":{n}"),
        EventKind::Heevd { n } => format!("\"kind\":\"Heevd\",\"n\":{n}"),
        EventKind::HhQr { m, n } => format!("\"kind\":\"HhQr\",\"m\":{m},\"n\":{n}"),
        EventKind::Blas1 { n } => format!("\"kind\":\"Blas1\",\"n\":{n}"),
        EventKind::H2D { bytes } => format!("\"kind\":\"H2D\",\"bytes\":{bytes}"),
        EventKind::D2H { bytes } => format!("\"kind\":\"D2H\",\"bytes\":{bytes}"),
        EventKind::AllReduce { bytes, members } => {
            format!("\"kind\":\"AllReduce\",\"bytes\":{bytes},\"members\":{members}")
        }
        EventKind::Bcast { bytes, members } => {
            format!("\"kind\":\"Bcast\",\"bytes\":{bytes},\"members\":{members}")
        }
        EventKind::AllGather {
            bytes_per_rank,
            members,
        } => {
            format!(
                "\"kind\":\"AllGather\",\"bytes_per_rank\":{bytes_per_rank},\"members\":{members}"
            )
        }
        EventKind::Barrier { members } => format!("\"kind\":\"Barrier\",\"members\":{members}"),
        EventKind::P2p { bytes, link } => {
            format!(
                "\"kind\":\"P2p\",\"bytes\":{bytes},\"link\":\"{}\"",
                link.name()
            )
        }
        EventKind::GridShrink {
            from_ranks,
            to_ranks,
        } => {
            format!("\"kind\":\"GridShrink\",\"from_ranks\":{from_ranks},\"to_ranks\":{to_ranks}")
        }
        EventKind::Redistribute { bytes } => {
            format!("\"kind\":\"Redistribute\",\"bytes\":{bytes}")
        }
    }
}

fn event_from_json(obj: &Json) -> Result<Event, String> {
    let region = obj.str_field("region")?;
    let region = Region::parse_name(region).ok_or_else(|| format!("unknown region {region}"))?;
    // The encoder leaves these out when they carry nothing; a key that is
    // present must still hold an integer.
    let optional = |key: &str| obj.get(key).map(|_| obj.u64_field(key)).transpose();
    Ok(Event {
        kind: kind_from_json(obj)?,
        region,
        window: optional("win")?.map(|w| w as u32),
        t0_us: optional("t0")?.unwrap_or(0),
        t1_us: optional("t1")?.unwrap_or(0),
    })
}

/// Decode an [`EventKind`] from an object carrying the flat fields emitted
/// by [`kind_to_json`] (other keys, such as a ledger event's `region` or a
/// trace event's `ev` tag, are ignored).
pub fn kind_from_json(obj: &Json) -> Result<EventKind, String> {
    Ok(match obj.str_field("kind")? {
        "Gemm" => EventKind::Gemm {
            m: obj.u64_field("m")?,
            n: obj.u64_field("n")?,
            k: obj.u64_field("k")?,
        },
        "Herk" => EventKind::Herk {
            m: obj.u64_field("m")?,
            n: obj.u64_field("n")?,
        },
        "Potrf" => EventKind::Potrf {
            n: obj.u64_field("n")?,
        },
        "Trsm" => EventKind::Trsm {
            m: obj.u64_field("m")?,
            n: obj.u64_field("n")?,
        },
        "Heevd" => EventKind::Heevd {
            n: obj.u64_field("n")?,
        },
        "HhQr" => EventKind::HhQr {
            m: obj.u64_field("m")?,
            n: obj.u64_field("n")?,
        },
        "Blas1" => EventKind::Blas1 {
            n: obj.u64_field("n")?,
        },
        "H2D" => EventKind::H2D {
            bytes: obj.u64_field("bytes")?,
        },
        "D2H" => EventKind::D2H {
            bytes: obj.u64_field("bytes")?,
        },
        "AllReduce" => EventKind::AllReduce {
            bytes: obj.u64_field("bytes")?,
            members: obj.u64_field("members")?,
        },
        "Bcast" => EventKind::Bcast {
            bytes: obj.u64_field("bytes")?,
            members: obj.u64_field("members")?,
        },
        "AllGather" => EventKind::AllGather {
            bytes_per_rank: obj.u64_field("bytes_per_rank")?,
            members: obj.u64_field("members")?,
        },
        "Barrier" => EventKind::Barrier {
            members: obj.u64_field("members")?,
        },
        "P2p" => {
            let link = obj.str_field("link")?;
            EventKind::P2p {
                bytes: obj.u64_field("bytes")?,
                link: LinkClass::parse_name(link).ok_or_else(|| format!("unknown link {link}"))?,
            }
        }
        "GridShrink" => EventKind::GridShrink {
            from_ranks: obj.u64_field("from_ranks")?,
            to_ranks: obj.u64_field("to_ranks")?,
        },
        "Redistribute" => EventKind::Redistribute {
            bytes: obj.u64_field("bytes")?,
        },
        other => return Err(format!("unknown event kind {other}")),
    })
}

/// RAII guard restoring the previous region on drop.
pub struct RegionGuard<'a> {
    ledger: &'a mut Ledger,
    prev: Option<Region>,
}

impl<'a> RegionGuard<'a> {
    pub fn new(ledger: &'a mut Ledger, region: Region) -> Self {
        let prev = ledger.region;
        ledger.region = Some(region);
        Self { ledger, prev }
    }
}

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        self.ledger.region = self.prev;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories() {
        assert_eq!(
            EventKind::Gemm { m: 1, n: 1, k: 1 }.category(),
            Category::Compute
        );
        assert_eq!(EventKind::H2D { bytes: 8 }.category(), Category::Transfer);
        assert_eq!(
            EventKind::AllReduce {
                bytes: 8,
                members: 4
            }
            .category(),
            Category::Comm
        );
    }

    #[test]
    fn flops_and_bytes() {
        assert_eq!(EventKind::Gemm { m: 2, n: 3, k: 4 }.flops(), 48);
        assert_eq!(
            EventKind::AllGather {
                bytes_per_rank: 10,
                members: 4
            }
            .bytes(),
            40
        );
        assert_eq!(EventKind::Barrier { members: 4 }.bytes(), 0);
    }

    #[test]
    fn ledger_accounting() {
        let mut l = Ledger::new();
        l.set_region(Region::Filter);
        l.record(EventKind::Gemm {
            m: 10,
            n: 10,
            k: 10,
        });
        l.record(EventKind::AllReduce {
            bytes: 800,
            members: 2,
        });
        l.set_region(Region::Qr);
        l.record(EventKind::Potrf { n: 6 });
        assert_eq!(l.events().len(), 3);
        assert_eq!(l.flops_in(Region::Filter), 2000);
        assert_eq!(l.flops_in(Region::Qr), 72);
        assert_eq!(l.bytes_in(Category::Comm), 800);
        assert_eq!(l.collective_count(), 1);
    }

    #[test]
    fn region_guard_restores() {
        let mut l = Ledger::new();
        l.set_region(Region::Filter);
        {
            let g = RegionGuard::new(&mut l, Region::Qr);
            g.ledger.record(EventKind::Potrf { n: 2 });
        }
        l.record(EventKind::Blas1 { n: 5 });
        assert_eq!(l.events()[0].region, Region::Qr);
        assert_eq!(l.events()[1].region, Region::Filter);
    }

    #[test]
    fn default_region_is_other() {
        let mut l = Ledger::new();
        l.record(EventKind::Barrier { members: 3 });
        assert_eq!(l.events()[0].region, Region::Other);
    }

    #[test]
    fn windows_tag_events() {
        let mut l = Ledger::new();
        l.record(EventKind::Blas1 { n: 1 });
        let w0 = l.begin_window();
        l.record(EventKind::Blas1 { n: 2 });
        l.record(EventKind::Blas1 { n: 3 });
        l.end_window();
        let w1 = l.begin_window();
        l.record(EventKind::Blas1 { n: 4 });
        l.end_window();
        l.record(EventKind::Blas1 { n: 5 });
        assert_ne!(w0, w1, "window ids are fresh");
        let wins: Vec<_> = l.events().iter().map(|e| e.window).collect();
        assert_eq!(wins, vec![None, Some(w0), Some(w0), Some(w1), None]);
        // record_in bypasses the window (explicit-region bookkeeping events).
        let mut l2 = Ledger::new();
        l2.begin_window();
        l2.record_in(Region::Qr, EventKind::Potrf { n: 2 });
        assert_eq!(l2.events()[0].window, None);
        l2.record_in_window(Region::Qr, EventKind::Potrf { n: 2 }, Some(7));
        assert_eq!(l2.events()[1].window, Some(7));
    }

    #[test]
    fn spanned_event_and_overlap_metric() {
        let mut l = Ledger::new();
        let t0 = now_us();
        // A collective spanning [t0, now] with a compute stamp inside it.
        l.record(EventKind::Gemm { m: 2, n: 2, k: 2 });
        std::thread::sleep(std::time::Duration::from_millis(2));
        l.record_spanned(
            EventKind::AllReduce {
                bytes: 64,
                members: 2,
            },
            t0,
        );
        let ev = l.events()[1];
        assert!(ev.t1_us >= ev.t0_us);
        assert!(ev.span_us() > 0, "nonblocking collective must span");
        assert!(
            l.comm_compute_overlap_us() > 0,
            "compute stamp inside the collective span witnesses overlap"
        );
        // A serialized ledger (instantaneous collectives) shows none.
        let mut flat = Ledger::new();
        flat.record(EventKind::Gemm { m: 2, n: 2, k: 2 });
        flat.record(EventKind::AllReduce {
            bytes: 64,
            members: 2,
        });
        assert_eq!(flat.comm_compute_overlap_us(), 0);
    }

    #[test]
    fn json_roundtrip() {
        let mut l = Ledger::new();
        l.record_in(Region::Filter, EventKind::Gemm { m: 4, n: 5, k: 6 });
        l.record_in(
            Region::Qr,
            EventKind::P2p {
                bytes: 512,
                link: LinkClass::NvLink,
            },
        );
        l.record_in(
            Region::Other,
            EventKind::AllGather {
                bytes_per_rank: 3,
                members: 2,
            },
        );
        let s = l.to_json();
        let back = Ledger::from_json(&s).unwrap();
        assert_eq!(back.events().len(), 3);
        assert_eq!(back.flops_in(Region::Filter), 240);
        assert_eq!(
            back.events()[1].kind,
            EventKind::P2p {
                bytes: 512,
                link: LinkClass::NvLink
            }
        );
        assert_eq!(back.to_json(), s, "re-encoding must be stable");
        assert_eq!(Ledger::from_json("[]").unwrap().events().len(), 0);
        assert!(Ledger::from_json("{oops}").is_err());
    }

    #[test]
    fn decode_rejects_what_a_substring_scan_accepts() {
        // The only `"n":` is inside a string value; `n` itself is missing.
        let inside_string = r#"[{"region":"QR","kind":"Potrf","note":"\"n\":4"}]"#;
        assert!(Ledger::from_json(inside_string).is_err());
        // `"},{"` inside a string is not an event boundary.
        let boundary = r#"[{"region":"QR","note":"},{","kind":"Potrf","n":4}]"#;
        assert_eq!(Ledger::from_json(boundary).unwrap().events().len(), 1);
        for bad in [
            r#"[{"region":"QR","kind":"Potrf","n":"4"}]"#,
            r#"[{"region":"QR","kind":"Potrf","n":4.5}]"#,
            r#"[{"region":"QR","kind":"Potrf","n":4,"win":"x"}]"#,
            r#"[{"region":"QR","kind":"Potrf","n":4}"#,
            r#"[{"region":"QR","kind":"Potrf","n":4}] tail"#,
            r#"[7]"#,
        ] {
            assert!(Ledger::from_json(bad).is_err(), "accepted {bad}");
        }
    }
}
