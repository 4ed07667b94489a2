//! The NIC's address-translation table (ATT).
//!
//! "When a region is 'open', the PMM maps a contiguous range of NPMU's
//! network virtual addresses to its physical memory. This mapping exists
//! in the address translation hardware of the NPMU's ServerNet interface.
//! It not only specifies address translation but also enforces a limited
//! form of access control, allowing the PMM to specify which CPUs have
//! access to a specific range" (§4.1).

use simcore::Shared;

/// Which initiator CPUs may touch a window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CpuFilter {
    Any,
    Only(Vec<u32>),
}

impl CpuFilter {
    pub fn allows(&self, cpu: u32) -> bool {
        match self {
            CpuFilter::Any => true,
            CpuFilter::Only(list) => list.contains(&cpu),
        }
    }
}

/// One programmed translation window.
#[derive(Clone, Debug)]
pub struct AttEntry {
    /// Base of the window in the device's network virtual address space.
    pub nva_base: u64,
    pub len: u64,
    /// Base of the backing range in device physical memory.
    pub phys_base: u64,
    pub allowed: CpuFilter,
}

/// Why a translation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttError {
    /// No window covers the requested range.
    Unmapped,
    /// A window covers it but the initiating CPU is not allowed.
    Forbidden,
}

/// The translation table. Shared ([`SharedAtt`]) between the device actor
/// that consults it on every inbound op and the PMM that programs it.
#[derive(Default)]
pub struct AttTable {
    entries: Vec<AttEntry>,
    /// Device-wide *read* fence. While `Some(filter)`, inbound reads from
    /// CPUs outside `filter` are rejected (`Forbidden`) even through
    /// otherwise-open windows; writes are unaffected. The PMM arms this on
    /// a mirror half whose contents are stale (down, or rebuilding) so
    /// clients can never observe pre-failure bytes, while foreground
    /// mirrored writes keep landing and converging the half. Lifted when
    /// the resilver verifies clean. Volatile, like the rest of the ATT.
    read_fence: Option<CpuFilter>,
}

pub type SharedAtt = Shared<AttTable>;

impl AttTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn shared() -> SharedAtt {
        Shared::new(AttTable::new())
    }

    /// Program a window. Windows must not overlap in NVA space; the PMM is
    /// the only writer and guarantees this, so overlap is a panic (bug).
    pub fn map(&mut self, entry: AttEntry) {
        let new_end = entry.nva_base + entry.len;
        for e in &self.entries {
            let end = e.nva_base + e.len;
            assert!(
                new_end <= e.nva_base || entry.nva_base >= end,
                "overlapping ATT windows"
            );
        }
        self.entries.push(entry);
    }

    /// Remove the window based at `nva_base`. Returns true if removed.
    pub fn unmap(&mut self, nva_base: u64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.nva_base != nva_base);
        self.entries.len() != before
    }

    /// Remove all windows (device reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Arm (`Some`) or lift (`None`) the device-wide read fence.
    pub fn set_read_fence(&mut self, fence: Option<CpuFilter>) {
        self.read_fence = fence;
    }

    pub fn read_fence(&self) -> Option<&CpuFilter> {
        self.read_fence.as_ref()
    }

    /// Translate a *read* access: the normal window translation, with the
    /// device-wide read fence applied on top.
    pub fn translate_read(&self, nva: u64, len: u64, cpu: u32) -> Result<u64, AttError> {
        if let Some(fence) = &self.read_fence {
            if !fence.allows(cpu) {
                return Err(AttError::Forbidden);
            }
        }
        self.translate(nva, len, cpu)
    }

    /// Translate a *peer-DMA* write: an inbound transfer initiated by
    /// another NPMU (device-to-device resilver copy), not a host CPU. The
    /// window bounds still apply, but the CPU filter does not — peer
    /// devices have no initiating CPU, and admission is controlled by the
    /// receiving device's peer allowlist instead (the PMM registers pool
    /// members as mutual DMA peers). The read fence is irrelevant: peers
    /// only ever *write* here.
    pub fn translate_peer(&self, nva: u64, len: u64) -> Result<u64, AttError> {
        for e in &self.entries {
            let end = e.nva_base + e.len;
            if nva >= e.nva_base && nva + len <= end {
                return Ok(e.phys_base + (nva - e.nva_base));
            }
        }
        Err(AttError::Unmapped)
    }

    /// Translate an access of `len` bytes at network virtual address `nva`
    /// by CPU `cpu` into a device-physical offset. The access must fall
    /// entirely inside one window — ServerNet transfers never straddle
    /// translation entries.
    pub fn translate(&self, nva: u64, len: u64, cpu: u32) -> Result<u64, AttError> {
        for e in &self.entries {
            let end = e.nva_base + e.len;
            if nva >= e.nva_base && nva + len <= end {
                if !e.allowed.allows(cpu) {
                    return Err(AttError::Forbidden);
                }
                return Ok(e.phys_base + (nva - e.nva_base));
            }
        }
        Err(AttError::Unmapped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AttTable {
        let mut t = AttTable::new();
        t.map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0x8000,
            allowed: CpuFilter::Any,
        });
        t.map(AttEntry {
            nva_base: 0x4000,
            len: 0x2000,
            phys_base: 0x2_0000,
            allowed: CpuFilter::Only(vec![1, 2]),
        });
        t
    }

    #[test]
    fn translate_offsets_correctly() {
        let t = table();
        assert_eq!(t.translate(0x1000, 16, 0), Ok(0x8000));
        assert_eq!(t.translate(0x1800, 0x800, 7), Ok(0x8800));
    }

    #[test]
    fn unmapped_and_straddling_rejected() {
        let t = table();
        assert_eq!(t.translate(0x0, 8, 0), Err(AttError::Unmapped));
        assert_eq!(t.translate(0x1FF0, 0x20, 0), Err(AttError::Unmapped));
        assert_eq!(t.translate(0x3000, 8, 1), Err(AttError::Unmapped));
    }

    #[test]
    fn cpu_filter_enforced() {
        let t = table();
        assert_eq!(t.translate(0x4000, 64, 1), Ok(0x2_0000));
        assert_eq!(t.translate(0x4000, 64, 3), Err(AttError::Forbidden));
    }

    #[test]
    fn unmap_removes_window() {
        let mut t = table();
        assert!(t.unmap(0x1000));
        assert!(!t.unmap(0x1000));
        assert_eq!(t.translate(0x1000, 8, 0), Err(AttError::Unmapped));
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_windows_panic() {
        let mut t = table();
        t.map(AttEntry {
            nva_base: 0x1800,
            len: 0x100,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
    }

    #[test]
    fn clear_empties() {
        let mut t = table();
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn read_fence_blocks_reads_not_writes() {
        let mut t = table();
        t.set_read_fence(Some(CpuFilter::Only(vec![9])));
        // Writes (plain translate) pass through any open window.
        assert_eq!(t.translate(0x1000, 16, 0), Ok(0x8000));
        // Reads from non-exempt CPUs are fenced; the exempt CPU passes.
        assert_eq!(t.translate_read(0x1000, 16, 0), Err(AttError::Forbidden));
        assert_eq!(t.translate_read(0x1000, 16, 9), Ok(0x8000));
        // Lifting the fence restores normal read translation.
        t.set_read_fence(None);
        assert_eq!(t.translate_read(0x1000, 16, 0), Ok(0x8000));
        // The fence never opens windows the CPU filter would reject.
        t.set_read_fence(Some(CpuFilter::Any));
        assert_eq!(t.translate_read(0x4000, 64, 3), Err(AttError::Forbidden));
    }

    #[test]
    fn peer_translation_skips_cpu_filter_not_bounds() {
        let mut t = table();
        // CPU-filtered window is open to a peer device...
        assert_eq!(t.translate_peer(0x4000, 64), Ok(0x2_0000));
        // ...but window bounds still apply.
        assert_eq!(t.translate_peer(0x0, 8), Err(AttError::Unmapped));
        assert_eq!(t.translate_peer(0x1FF0, 0x20), Err(AttError::Unmapped));
        // The read fence never blocks peer writes.
        t.set_read_fence(Some(CpuFilter::Only(vec![9])));
        assert_eq!(t.translate_peer(0x1000, 16), Ok(0x8000));
    }

    #[test]
    fn adjacent_windows_allowed() {
        let mut t = AttTable::new();
        t.map(AttEntry {
            nva_base: 0,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
        t.map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0x1000,
            allowed: CpuFilter::Any,
        });
        assert_eq!(t.len(), 2);
    }
}
