//! The hardware DHTM adds on top of an RTM-like HTM (Table II of the paper).
//!
//! This module exists so that the Table II "experiment" can be regenerated
//! programmatically (`dhtm_experiments --experiment table2`) and so that the
//! storage overhead can be asserted in tests.

use dhtm_types::config::SystemConfig;

/// One architectural register or structure added by DHTM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareRegister {
    /// Name as given in Table II.
    pub name: &'static str,
    /// Description from Table II.
    pub description: &'static str,
    /// Storage cost in bits for the given configuration.
    pub bits: usize,
}

/// Enumerates the DHTM hardware overhead for a configuration (Table II).
///
/// The log buffer dominates: each entry holds a cache-line address
/// (modelled as 48 bits of physical line address). The remaining additions
/// are a transaction-state register and two sets of
/// start/next/size registers for the log area and the overflow list.
pub fn hardware_overhead(cfg: &SystemConfig) -> Vec<HardwareRegister> {
    const ADDR_BITS: usize = 48;
    vec![
        HardwareRegister {
            name: "Log Buffer",
            description: "Tracks cache lines pending log writes",
            bits: cfg.log_buffer_entries * ADDR_BITS,
        },
        HardwareRegister {
            name: "Transaction State",
            description: "Identify the state of a transaction",
            bits: 3,
        },
        HardwareRegister {
            name: "Log Area Start Pointer",
            description: "The start address of the log space",
            bits: 64,
        },
        HardwareRegister {
            name: "Log Area Next Pointer",
            description: "Address to write the next log entry",
            bits: 64,
        },
        HardwareRegister {
            name: "Log Area Size",
            description: "Size of the log space",
            bits: 64,
        },
        HardwareRegister {
            name: "Overflow List Start Pointer",
            description: "The start address of the overflow list",
            bits: 64,
        },
        HardwareRegister {
            name: "Overflow List Next Pointer",
            description: "Address to write the next entry",
            bits: 64,
        },
        HardwareRegister {
            name: "Overflow List Size",
            description: "Size of the overflow list",
            bits: 64,
        },
    ]
}

/// Total per-core storage overhead in bytes.
pub fn total_overhead_bytes(cfg: &SystemConfig) -> usize {
    hardware_overhead(cfg).iter().map(|r| r.bits).sum::<usize>() / 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_lists_eight_structures() {
        let regs = hardware_overhead(&SystemConfig::isca18_baseline());
        assert_eq!(regs.len(), 8);
        let names: Vec<_> = regs.iter().map(|r| r.name).collect();
        assert!(names.contains(&"Log Buffer"));
        assert!(names.contains(&"Transaction State"));
    }

    #[test]
    fn overhead_is_dominated_by_the_log_buffer_and_stays_small() {
        let cfg = SystemConfig::isca18_baseline();
        let regs = hardware_overhead(&cfg);
        let log_buffer = regs.iter().find(|r| r.name == "Log Buffer").unwrap();
        let total: usize = regs.iter().map(|r| r.bits).sum();
        assert!(log_buffer.bits * 2 > total, "log buffer dominates");
        // The whole addition is a few hundred bytes per core.
        assert!(total_overhead_bytes(&cfg) < 1024);
    }

    #[test]
    fn overhead_scales_with_log_buffer_size() {
        let small =
            total_overhead_bytes(&SystemConfig::isca18_baseline().with_log_buffer_entries(4));
        let large =
            total_overhead_bytes(&SystemConfig::isca18_baseline().with_log_buffer_entries(128));
        assert!(large > small);
    }
}
