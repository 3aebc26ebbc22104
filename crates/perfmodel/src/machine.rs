//! Machine description and per-event pricing.
//!
//! The constants approximate one JUWELS-Booster node slice as used by the
//! paper: one NVIDIA A100-40GB per MPI rank (4 per node), PCIe-gen4 host
//! links, 4x HDR-200 InfiniBand per node. They are *calibration* constants —
//! chosen so the priced event streams reproduce the magnitudes and, more
//! importantly, the shapes of the paper's Table 2 and Figs. 2–3 — and are
//! documented as such in EXPERIMENTS.md.

use chase_comm::{Category, Event, EventKind};
use chase_topo::Topology;

/// Which of the four ChASE scalar types is being priced (flop multiplier
/// relative to the ledger's generic `2 m n k` counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    F32,
    F64,
    C32,
    C64,
}

impl ScalarKind {
    /// Real-flop multiplier: one complex fused multiply-add is 4 real
    /// multiplies + 4 adds ~ 4x the generic count.
    pub fn flop_mult(self) -> f64 {
        match self {
            ScalarKind::F32 | ScalarKind::F64 => 1.0,
            ScalarKind::C32 | ScalarKind::C64 => 4.0,
        }
    }

    pub fn bytes(self) -> usize {
        match self {
            ScalarKind::F32 => 4,
            ScalarKind::F64 => 8,
            ScalarKind::C32 => 8,
            ScalarKind::C64 => 16,
        }
    }

    /// Throughput multiplier relative to the calibrated double-precision
    /// rates: non-tensor-core FP32 GEMM on an A100 sustains ~2x the FP64
    /// rate (19.5 vs 9.7 TFLOP/s peak), and the BLAS-1/bandwidth terms pick
    /// up their own factor through the halved [`ScalarKind::bytes`].
    pub fn rate_mult(self) -> f64 {
        match self {
            ScalarKind::F32 | ScalarKind::C32 => 2.0,
            ScalarKind::F64 | ScalarKind::C64 => 1.0,
        }
    }
}

/// How collectives move data (the STD-vs-NCCL axis of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommFlavor {
    /// Host-staged MPI: tree collectives on host buffers; the D2H/H2D
    /// events in the ledger carry the staging cost.
    MpiHostStaged,
    /// Device-direct NCCL: ring collectives over NVLink/InfiniBand.
    NcclDeviceDirect,
}

/// Calibrated machine model.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Effective large-GEMM rate per GPU, real flops/s.
    pub gemm_rate: f64,
    /// Effective HERK/TRSM rate per GPU.
    pub level3_rate: f64,
    /// Effective POTRF rate (small matrices, latency-heavy).
    pub potrf_rate: f64,
    /// Effective dense Hermitian eigensolver rate (cuSOLVER heevd).
    pub heevd_rate: f64,
    /// Effective Householder-QR rate (cuSOLVER geqrf/ungqr; ScaLAPACK-like
    /// panel synchronization is charged separately per column).
    pub hhqr_rate: f64,
    /// Per-column synchronization overhead of the distributed HHQR
    /// (ScaLAPACK panel broadcasts; the reason HHQR dominates Table 2).
    pub hhqr_panel_sync: f64,
    /// Device memory bandwidth (BLAS-1), bytes/s.
    pub hbm_bw: f64,
    /// Kernel launch overhead per compute event.
    pub launch_overhead: f64,
    /// Host<->device copy bandwidth, bytes/s (PCIe gen4 x16 effective).
    pub pcie_bw: f64,
    /// Host<->device copy latency per transfer.
    pub pcie_latency: f64,
    /// MPI point-to-point bandwidth per rank, bytes/s.
    pub mpi_bw: f64,
    /// MPI per-message latency.
    pub mpi_latency: f64,
    /// NCCL ring bandwidth per GPU, bytes/s (NVLink within node, HDR
    /// across; the effective blended figure).
    pub nccl_bw: f64,
    /// NCCL per-step latency.
    pub nccl_latency: f64,
    /// Hierarchical link topology used to price the per-hop `P2p` events
    /// emitted by the `chase-topo` collective schedules.
    pub topo: Topology,
}

impl Machine {
    /// JUWELS-Booster-like calibration (see module docs).
    pub fn juwels_booster() -> Self {
        Self {
            gemm_rate: 1.5e13,
            level3_rate: 1.2e13,
            potrf_rate: 6.0e11,
            heevd_rate: 8.0e11,
            hhqr_rate: 2.0e11,
            hhqr_panel_sync: 3.0e-4,
            hbm_bw: 1.3e12,
            launch_overhead: 8.0e-6,
            pcie_bw: 2.2e10,
            pcie_latency: 1.0e-5,
            mpi_bw: 1.1e10,
            mpi_latency: 4.0e-6,
            nccl_bw: 2.2e10,
            nccl_latency: 2.0e-5,
            topo: Topology::juwels_booster(),
        }
    }

    /// Time for a compute event. `gpus` lets the LMS configuration use its
    /// 4 GPUs per rank for the GEMM-heavy filter kernels.
    pub fn compute_time(&self, kind: &EventKind, scalar: ScalarKind, gpus: f64) -> f64 {
        let flops = kind.flops() as f64 * scalar.flop_mult();
        let rm = scalar.rate_mult();
        let t = match kind {
            EventKind::Gemm { .. } => flops / (self.gemm_rate * rm * gpus),
            EventKind::Herk { .. } | EventKind::Trsm { .. } => {
                flops / (self.level3_rate * rm * gpus)
            }
            EventKind::Potrf { .. } => flops / self.potrf_rate,
            EventKind::Heevd { .. } => flops / self.heevd_rate,
            EventKind::HhQr { n, .. } => flops / self.hhqr_rate + *n as f64 * self.hhqr_panel_sync,
            EventKind::Blas1 { n } => (*n as f64 * scalar.bytes() as f64 * 2.0) / self.hbm_bw,
            _ => return 0.0,
        };
        t + self.launch_overhead
    }

    /// Time for a host<->device staging copy.
    pub fn transfer_time(&self, kind: &EventKind) -> f64 {
        match kind {
            EventKind::H2D { bytes } | EventKind::D2H { bytes } => {
                self.pcie_latency + *bytes as f64 / self.pcie_bw
            }
            _ => 0.0,
        }
    }

    /// Time for a collective. `members` comes from the event itself.
    ///
    /// MPI collectives use a binary-tree schedule: `ceil(log2 k)` steps,
    /// plus one extra step when `k` is not a power of two — this asymmetry
    /// produces the characteristic dips of Fig. 3a at 4/16/64/256 nodes.
    /// NCCL collectives use a ring schedule.
    pub fn comm_time(&self, kind: &EventKind, flavor: CommFlavor) -> f64 {
        // Per-hop events carry their own link class; the topology prices
        // them directly with the alpha-beta parameters of the chosen path.
        if let EventKind::P2p { bytes, link } = kind {
            let direct = matches!(flavor, CommFlavor::NcclDeviceDirect);
            return self.topo.hop_time(*bytes, *link, direct);
        }
        let (bytes, members) = match kind {
            EventKind::AllReduce { bytes, members } => (*bytes as f64, *members),
            EventKind::Bcast { bytes, members } => (*bytes as f64, *members),
            EventKind::AllGather {
                bytes_per_rank,
                members,
            } => {
                // Modeled as the per-task broadcasts of the legacy layout:
                // linear in the member count (Section 2.3).
                let k = *members as f64;
                return match flavor {
                    CommFlavor::MpiHostStaged => {
                        k * (self.mpi_latency + *bytes_per_rank as f64 / self.mpi_bw)
                    }
                    CommFlavor::NcclDeviceDirect => {
                        (k - 1.0) * self.nccl_latency
                            + (k - 1.0) * *bytes_per_rank as f64 / self.nccl_bw
                    }
                };
            }
            EventKind::Barrier { members } => {
                let k = *members as f64;
                return match flavor {
                    CommFlavor::MpiHostStaged => self.mpi_latency * k.log2().ceil().max(1.0),
                    CommFlavor::NcclDeviceDirect => self.nccl_latency,
                };
            }
            EventKind::GridShrink { to_ranks, .. } => {
                // Agreement round over the survivors plus communicator
                // reconstruction: two latency-bound tree sweeps (ULFM's
                // shrink is latency-, not bandwidth-, dominated).
                let k = (*to_ranks as f64).max(1.0);
                let steps = k.log2().ceil().max(1.0);
                return match flavor {
                    CommFlavor::MpiHostStaged => 2.0 * steps * self.mpi_latency,
                    CommFlavor::NcclDeviceDirect => 2.0 * steps * self.nccl_latency,
                };
            }
            EventKind::Redistribute { bytes } => {
                // Panel re-materialization streams the replacement block
                // over the network once (lost panels regenerate locally at
                // memory bandwidth, which the dominant network term hides).
                let b = *bytes as f64;
                return match flavor {
                    CommFlavor::MpiHostStaged => self.mpi_latency + b / self.mpi_bw,
                    CommFlavor::NcclDeviceDirect => self.nccl_latency + b / self.nccl_bw,
                };
            }
            _ => return 0.0,
        };
        if members <= 1 {
            return 0.0;
        }
        let k = members as f64;
        match (flavor, kind) {
            (CommFlavor::MpiHostStaged, EventKind::AllReduce { .. }) => {
                let mut steps = k.log2().ceil();
                if !members.is_power_of_two() {
                    steps += 1.0;
                }
                2.0 * steps * (self.mpi_latency + bytes / self.mpi_bw)
            }
            (CommFlavor::MpiHostStaged, EventKind::Bcast { .. }) => {
                let mut steps = k.log2().ceil();
                if !members.is_power_of_two() {
                    steps += 1.0;
                }
                steps * (self.mpi_latency + bytes / self.mpi_bw)
            }
            (CommFlavor::NcclDeviceDirect, EventKind::AllReduce { .. }) => {
                2.0 * (k - 1.0) / k * bytes / self.nccl_bw + (k - 1.0) * self.nccl_latency
            }
            (CommFlavor::NcclDeviceDirect, EventKind::Bcast { .. }) => {
                bytes / self.nccl_bw + (k - 1.0) * self.nccl_latency
            }
            _ => 0.0,
        }
    }

    /// Total time for one event.
    pub fn event_time(&self, ev: &Event, scalar: ScalarKind, flavor: CommFlavor, gpus: f64) -> f64 {
        match ev.kind.category() {
            Category::Compute => self.compute_time(&ev.kind, scalar, gpus),
            Category::Transfer => self.transfer_time(&ev.kind),
            Category::Comm => self.comm_time(&ev.kind, flavor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_comm::Region;

    fn m() -> Machine {
        Machine::juwels_booster()
    }

    #[test]
    fn scalar_multipliers() {
        assert_eq!(ScalarKind::C64.flop_mult(), 4.0);
        assert_eq!(ScalarKind::F64.flop_mult(), 1.0);
        assert_eq!(ScalarKind::C64.bytes(), 16);
    }

    #[test]
    fn gemm_time_scales_with_flops() {
        let small = m().compute_time(
            &EventKind::Gemm {
                m: 100,
                n: 100,
                k: 100,
            },
            ScalarKind::C64,
            1.0,
        );
        let big = m().compute_time(
            &EventKind::Gemm {
                m: 1000,
                n: 1000,
                k: 1000,
            },
            ScalarKind::C64,
            1.0,
        );
        assert!(big > 100.0 * small * 0.5, "cubic growth expected");
        // 4 GPUs: ~4x faster on big GEMMs
        let big4 = m().compute_time(
            &EventKind::Gemm {
                m: 1000,
                n: 1000,
                k: 1000,
            },
            ScalarKind::C64,
            4.0,
        );
        assert!(big4 < big / 3.0);
    }

    #[test]
    fn hhqr_much_slower_than_cholesky_pipeline() {
        // Table 2's core fact: at equal sizes, HHQR >> Gram+POTRF+TRSM.
        let mm = m();
        let (rows, cols) = (30_000u64, 2_960u64);
        let hh = mm.compute_time(&EventKind::HhQr { m: rows, n: cols }, ScalarKind::C64, 1.0);
        let chol = mm.compute_time(&EventKind::Herk { m: rows, n: cols }, ScalarKind::C64, 1.0)
            + mm.compute_time(&EventKind::Potrf { n: cols }, ScalarKind::C64, 1.0)
            + mm.compute_time(&EventKind::Trsm { m: rows, n: cols }, ScalarKind::C64, 1.0);
        assert!(
            hh > 10.0 * chol,
            "HHQR {hh:.3} vs CholeskyQR path {chol:.3}"
        );
    }

    #[test]
    fn mpi_power_of_two_dip() {
        let mm = m();
        let t16 = mm.comm_time(
            &EventKind::AllReduce {
                bytes: 1 << 20,
                members: 16,
            },
            CommFlavor::MpiHostStaged,
        );
        let t17 = mm.comm_time(
            &EventKind::AllReduce {
                bytes: 1 << 20,
                members: 17,
            },
            CommFlavor::MpiHostStaged,
        );
        let t15 = mm.comm_time(
            &EventKind::AllReduce {
                bytes: 1 << 20,
                members: 15,
            },
            CommFlavor::MpiHostStaged,
        );
        assert!(t16 < t17, "power of two must be faster");
        assert!(t16 < t15, "15 ranks needs as many tree steps plus padding");
    }

    #[test]
    fn nccl_beats_mpi_on_large_payloads() {
        let mm = m();
        let ev = EventKind::AllReduce {
            bytes: 64 << 20,
            members: 30,
        };
        let nccl = mm.comm_time(&ev, CommFlavor::NcclDeviceDirect);
        let mpi = mm.comm_time(&ev, CommFlavor::MpiHostStaged);
        assert!(nccl < mpi, "nccl {nccl} vs mpi {mpi}");
    }

    #[test]
    fn solo_collectives_are_free() {
        let mm = m();
        assert_eq!(
            mm.comm_time(
                &EventKind::AllReduce {
                    bytes: 100,
                    members: 1
                },
                CommFlavor::NcclDeviceDirect
            ),
            0.0
        );
    }

    #[test]
    fn event_time_dispatch() {
        let mm = m();
        let ev = Event::new(EventKind::D2H { bytes: 1 << 20 }, Region::Qr);
        let t = mm.event_time(&ev, ScalarKind::C64, CommFlavor::MpiHostStaged, 1.0);
        assert!(t > 0.0);
        assert!((t - (mm.pcie_latency + (1u64 << 20) as f64 / mm.pcie_bw)).abs() < 1e-12);
    }

    #[test]
    fn p2p_hops_priced_by_link_and_path() {
        use chase_comm::LinkClass;
        let mm = m();
        for link in [LinkClass::NvLink, LinkClass::Ib] {
            let ev = EventKind::P2p {
                bytes: 1 << 20,
                link,
            };
            let nccl = mm.comm_time(&ev, CommFlavor::NcclDeviceDirect);
            let mpi = mm.comm_time(&ev, CommFlavor::MpiHostStaged);
            assert!(nccl > 0.0);
            assert!(nccl < mpi, "device-direct hop must be cheaper on {link:?}");
            assert!((nccl - mm.topo.hop_time(1 << 20, link, true)).abs() < 1e-15);
        }
        let nv = mm.comm_time(
            &EventKind::P2p {
                bytes: 1 << 20,
                link: LinkClass::NvLink,
            },
            CommFlavor::NcclDeviceDirect,
        );
        let ib = mm.comm_time(
            &EventKind::P2p {
                bytes: 1 << 20,
                link: LinkClass::Ib,
            },
            CommFlavor::NcclDeviceDirect,
        );
        assert!(nv < ib, "NVLink hop must beat InfiniBand hop");
    }
}
