//! Hierarchical machine topology.
//!
//! Models a JUWELS-Booster-like cluster: nodes of `gpus_per_node` GPUs
//! linked by NVLink, nodes linked by 4x HDR-200 InfiniBand. Consecutive
//! world ranks fill a node before spilling to the next (the standard
//! rank-per-GPU placement). Each link class carries an `alpha` (per-message
//! latency, seconds) and `beta` (inverse bandwidth, seconds per byte) for
//! both the device-direct (NCCL) and host-staged (MPI) paths; the constants
//! are calibration values documented in EXPERIMENTS.md.

use chase_comm::LinkClass;

/// Alpha-beta parameters of one link: a `bytes`-sized message costs
/// `alpha + bytes * beta` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Per-message latency, seconds.
    pub alpha: f64,
    /// Inverse bandwidth, seconds per byte.
    pub beta: f64,
}

impl LinkParams {
    pub fn time(&self, bytes: u64) -> f64 {
        self.alpha + bytes as f64 * self.beta
    }

    /// Component-wise worst of two links (the per-step cost of a lockstep
    /// schedule is set by its slowest hop).
    pub fn worst(self, other: LinkParams) -> LinkParams {
        LinkParams {
            alpha: self.alpha.max(other.alpha),
            beta: self.beta.max(other.beta),
        }
    }
}

/// Hierarchical topology of the modeled machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// GPUs (= ranks) per node; consecutive world ranks share a node.
    pub gpus_per_node: usize,
    /// Device-direct intra-node link (NVLink3).
    pub nvlink: LinkParams,
    /// Device-direct inter-node link (per-GPU share of 4x HDR-200).
    pub ib: LinkParams,
    /// Host-staged intra-node path (shared-memory MPI).
    pub host_intra: LinkParams,
    /// Host-staged inter-node path (MPI over InfiniBand).
    pub host_inter: LinkParams,
}

impl Topology {
    /// JUWELS-Booster-like calibration: 4x A100 per node on NVLink3, nodes
    /// on 4x HDR-200 InfiniBand. The host-staged path is strictly worse
    /// than the device-direct path in both alpha and beta — the per-hop
    /// expression of the paper's STD-vs-NCCL gap (staging copies are
    /// charged separately by `chase-perfmodel`).
    pub fn juwels_booster() -> Self {
        Self {
            gpus_per_node: 4,
            nvlink: LinkParams {
                alpha: 3.0e-6,
                beta: 1.0 / 8.0e10,
            },
            ib: LinkParams {
                alpha: 6.0e-6,
                beta: 1.0 / 1.25e10,
            },
            host_intra: LinkParams {
                alpha: 8.0e-6,
                beta: 1.0 / 2.0e10,
            },
            host_inter: LinkParams {
                alpha: 1.2e-5,
                beta: 1.0 / 1.0e10,
            },
        }
    }

    /// Node index of a world rank.
    pub fn node_of(&self, world_rank: usize) -> usize {
        world_rank / self.gpus_per_node
    }

    /// Physical link class between two world ranks.
    pub fn link_between(&self, a: usize, b: usize) -> LinkClass {
        if self.node_of(a) == self.node_of(b) {
            LinkClass::NvLink
        } else {
            LinkClass::Ib
        }
    }

    /// Alpha-beta parameters of a link for the chosen data path.
    pub fn hop_params(&self, link: LinkClass, device_direct: bool) -> LinkParams {
        match (link, device_direct) {
            (LinkClass::NvLink, true) => self.nvlink,
            (LinkClass::Ib, true) => self.ib,
            (LinkClass::NvLink, false) => self.host_intra,
            (LinkClass::Ib, false) => self.host_inter,
        }
    }

    /// Time of one `bytes`-sized hop over `link`.
    pub fn hop_time(&self, bytes: u64, link: LinkClass, device_direct: bool) -> f64 {
        self.hop_params(link, device_direct).time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping_and_links() {
        let t = Topology::juwels_booster();
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.link_between(0, 3), LinkClass::NvLink);
        assert_eq!(t.link_between(3, 4), LinkClass::Ib);
        assert_eq!(t.link_between(1, 9), LinkClass::Ib);
    }

    #[test]
    fn device_direct_strictly_dominates_host_path() {
        // The invariant behind "NCCL cheaper than STD at every size".
        let t = Topology::juwels_booster();
        assert!(t.nvlink.alpha < t.host_intra.alpha);
        assert!(t.nvlink.beta < t.host_intra.beta);
        assert!(t.ib.alpha < t.host_inter.alpha);
        assert!(t.ib.beta < t.host_inter.beta);
    }

    #[test]
    fn hop_time_is_alpha_beta() {
        let t = Topology::juwels_booster();
        let p = t.hop_params(LinkClass::Ib, true);
        let want = p.alpha + 1.0e6 * p.beta;
        assert!((t.hop_time(1_000_000, LinkClass::Ib, true) - want).abs() < 1e-15);
        assert!(
            t.hop_time(1 << 20, LinkClass::NvLink, true) < t.hop_time(1 << 20, LinkClass::Ib, true)
        );
    }

    #[test]
    fn worst_link_params() {
        let a = LinkParams {
            alpha: 1.0,
            beta: 4.0,
        };
        let b = LinkParams {
            alpha: 2.0,
            beta: 3.0,
        };
        assert_eq!(
            a.worst(b),
            LinkParams {
                alpha: 2.0,
                beta: 4.0
            }
        );
    }
}
