//! The simulated machine: configuration, memory system, lock table and
//! transaction-id allocation.

use dhtm_coherence::memsys::MemorySystem;
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::TxIdAllocator;

use crate::locks::LockTable;

/// The machine every design runs on.
///
/// The fields are public because the machine is a passive aggregate that the
/// transaction engines manipulate directly (they are the "hardware" being
/// modelled); all invariants live in the component types themselves.
#[derive(Debug)]
pub struct Machine {
    /// The cache hierarchy, directory protocol, persistent memory and memory
    /// channel.
    pub mem: MemorySystem,
    /// The system configuration the machine was built from.
    pub config: SystemConfig,
    /// Allocator for globally unique transaction ids.
    pub tx_ids: TxIdAllocator,
    /// The software lock table: SO/ATOM lock sets and the HTM designs'
    /// global fallback lock. The driver watches its release count to wake
    /// cores parked on a busy lock.
    pub locks: LockTable,
}

impl Machine {
    /// Builds a machine from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: SystemConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"));
        Machine {
            mem: MemorySystem::new(&config),
            config,
            tx_ids: TxIdAllocator::new(),
            locks: LockTable::new(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.num_cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_reflects_configuration() {
        let m = Machine::new(SystemConfig::small_test());
        assert_eq!(m.num_cores(), 4);
        assert_eq!(m.mem.num_cores(), 4);
        assert_eq!(m.mem.latency().l1_hit, 3);
    }

    #[test]
    fn tx_ids_are_unique() {
        let mut m = Machine::new(SystemConfig::small_test());
        let a = m.tx_ids.allocate();
        let b = m.tx_ids.allocate();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid system configuration")]
    fn invalid_configuration_panics() {
        let cfg = SystemConfig::small_test().with_num_cores(0);
        Machine::new(cfg);
    }
}
