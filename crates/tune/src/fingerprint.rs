//! Machine fingerprinting: a stable identity for the calibration a plan
//! was measured under. A plan tuned for one machine is meaningless on
//! another — JUWELS-Booster's NVLink/IB ratio decides the ring-vs-tree
//! crossover — so the DB key starts with a hash of every constant the cost
//! model (and thus the deterministic trial clock) depends on.

use chase_perfmodel::Machine;
use chase_trace::fnv1a;

/// Stable fingerprint of a machine model: `m-` plus 16 hex digits of an
/// FNV-1a hash over the exact bit patterns of the calibration constants and
/// the topology parameters. Changing any constant — even in the last ulp —
/// changes the fingerprint, which is exactly the invalidation rule the
/// deterministic trial clock needs.
pub fn machine_fingerprint(machine: &Machine) -> String {
    let mut bytes = Vec::with_capacity(256);
    for x in [
        machine.gemm_rate,
        machine.level3_rate,
        machine.potrf_rate,
        machine.heevd_rate,
        machine.hhqr_rate,
        machine.hhqr_panel_sync,
        machine.hbm_bw,
        machine.launch_overhead,
        machine.pcie_bw,
        machine.pcie_latency,
        machine.mpi_bw,
        machine.mpi_latency,
        machine.nccl_bw,
        machine.nccl_latency,
    ] {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    // The topology's link parameters feed the per-hop trial pricing; its
    // Debug rendering is a deterministic function of the field values.
    bytes.extend_from_slice(format!("{:?}", machine.topo).as_bytes());
    format!("m-{:016x}", fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = machine_fingerprint(&Machine::juwels_booster());
        let b = machine_fingerprint(&Machine::juwels_booster());
        assert_eq!(a, b);
        let mut m = Machine::juwels_booster();
        m.nccl_bw *= 1.0 + 1e-15;
        assert_ne!(a, machine_fingerprint(&m));
    }
}
