//! Data-integrity auditing — the paper's §1.3 duplicate-and-compare.
//!
//! "The most common method of ensuring data integrity is the
//! duplicate-and-compare (D&C) approach, in which the results of
//! redundant computations, with identical data and in identical state,
//! are compared. Failed comparisons indicate data corruption."
//!
//! The PM volume's mirrored NPMU pair is a standing duplicate: every
//! client write lands on both devices, so the mirrors must be
//! byte-identical wherever data was written through the API. This module
//! is the offline D&C scrubber: it recovers each device's metadata,
//! cross-checks the region tables, and compares region contents
//! chunk-by-chunk, reporting the first divergences — the detection side
//! of a silent-data-corruption (SDC) story.

use npmu::NvImage;
use pmm::{MetaStore, VolumeMeta};
use simcore::durable::Image;

/// One detected divergence between the mirrors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Discrepancy {
    /// The two devices recovered different metadata.
    MetadataMismatch { epoch_a: u64, epoch_b: u64 },
    /// A region exists on one device's table but not the other's.
    RegionMissing { region: String, on_device: char },
    /// Region bytes differ; first differing offset within the region.
    ContentMismatch {
        region: String,
        offset: u64,
        byte_a: u8,
        byte_b: u8,
    },
}

/// Result of a mirror scrub.
#[derive(Debug, Default)]
pub struct MirrorReport {
    pub regions_checked: usize,
    pub bytes_compared: u64,
    pub discrepancies: Vec<Discrepancy>,
}

impl MirrorReport {
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

const CHUNK: usize = 64 * 1024;

/// Scrub a mirrored NPMU pair. Limits to `max_findings` discrepancies
/// (the scrubber keeps going across regions but caps per-region noise).
pub fn verify_mirrors(a: &Image<NvImage>, b: &Image<NvImage>, max_findings: usize) -> MirrorReport {
    let mut report = MirrorReport::default();
    let a = a.lock();
    let b = b.lock();
    let meta_a = MetaStore::recover(|off, len| a.read(off, len));
    let meta_b = MetaStore::recover(|off, len| b.read(off, len));

    if meta_a != meta_b {
        report.discrepancies.push(Discrepancy::MetadataMismatch {
            epoch_a: meta_a.epoch,
            epoch_b: meta_b.epoch,
        });
    }
    let union = region_union(&meta_a, &meta_b);
    for name in &union {
        let ra = meta_a.find(name);
        let rb = meta_b.find(name);
        match (ra, rb) {
            (Some(ra), Some(rb)) if ra.base == rb.base && ra.len == rb.len => {
                report.regions_checked += 1;
                let mut off = 0u64;
                let mut region_findings = 0;
                while off < ra.len && region_findings < 4 {
                    let n = CHUNK.min((ra.len - off) as usize);
                    let ca = a.read(ra.base + off, n);
                    let cb = b.read(rb.base + off, n);
                    report.bytes_compared += n as u64;
                    if ca != cb {
                        let i = ca.iter().zip(cb.iter()).position(|(x, y)| x != y).unwrap();
                        report.discrepancies.push(Discrepancy::ContentMismatch {
                            region: name.clone(),
                            offset: off + i as u64,
                            byte_a: ca[i],
                            byte_b: cb[i],
                        });
                        region_findings += 1;
                    }
                    off += n as u64;
                    if report.discrepancies.len() >= max_findings {
                        return report;
                    }
                }
            }
            (Some(_), Some(_)) => {
                // Same name, different placement: metadata mismatch
                // already reported above.
            }
            (Some(_), None) => report.discrepancies.push(Discrepancy::RegionMissing {
                region: name.clone(),
                on_device: 'b',
            }),
            (None, Some(_)) => report.discrepancies.push(Discrepancy::RegionMissing {
                region: name.clone(),
                on_device: 'a',
            }),
            (None, None) => unreachable!(),
        }
    }
    report
}

fn region_union(a: &VolumeMeta, b: &VolumeMeta) -> Vec<String> {
    let mut names: Vec<String> = a
        .regions
        .iter()
        .chain(b.regions.iter())
        .map(|r| r.name.clone())
        .collect();
    names.sort();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmm::{RegionMeta, META_BYTES};
    use simcore::Shared;

    fn device_with_meta(regions: Vec<RegionMeta>, epoch: u64) -> Image<NvImage> {
        let img = Shared::new(NvImage::new(4 << 20));
        let meta = VolumeMeta {
            epoch,
            next_region_id: regions.len() as u64,
            regions,
            health: Default::default(),
            pool: None,
        };
        let enc = meta.encode();
        img.lock().write(MetaStore::slot_for_epoch(epoch), &enc);
        img
    }

    fn region(name: &str, base: u64, len: u64) -> RegionMeta {
        RegionMeta {
            id: 1,
            name: name.into(),
            base,
            len,
            owner_cpu: 0,
        }
    }

    #[test]
    fn identical_mirrors_are_clean() {
        let regs = vec![region("r", META_BYTES, 8192)];
        let a = device_with_meta(regs.clone(), 3);
        let b = device_with_meta(regs, 3);
        for img in [&a, &b] {
            img.lock().write(META_BYTES + 100, &[7; 64]);
        }
        let rep = verify_mirrors(&a, &b, 16);
        assert!(rep.is_clean(), "{:?}", rep.discrepancies);
        assert_eq!(rep.regions_checked, 1);
        assert_eq!(rep.bytes_compared, 8192);
    }

    #[test]
    fn single_flipped_byte_detected_with_location() {
        let regs = vec![region("r", META_BYTES, 8192)];
        let a = device_with_meta(regs.clone(), 3);
        let b = device_with_meta(regs, 3);
        for img in [&a, &b] {
            img.lock().write(META_BYTES, &[0xAA; 4096]);
        }
        // Silent corruption on one mirror.
        b.lock().write(META_BYTES + 1234, &[0xAB]);
        let rep = verify_mirrors(&a, &b, 16);
        assert_eq!(rep.discrepancies.len(), 1);
        match &rep.discrepancies[0] {
            Discrepancy::ContentMismatch {
                region,
                offset,
                byte_a,
                byte_b,
            } => {
                assert_eq!(region, "r");
                assert_eq!(*offset, 1234);
                assert_eq!((*byte_a, *byte_b), (0xAA, 0xAB));
            }
            other => panic!("wrong finding: {other:?}"),
        }
    }

    #[test]
    fn metadata_divergence_detected() {
        let a = device_with_meta(vec![region("x", META_BYTES, 4096)], 3);
        let b = device_with_meta(vec![region("y", META_BYTES, 4096)], 4);
        let rep = verify_mirrors(&a, &b, 16);
        assert!(!rep.is_clean());
        assert!(rep.discrepancies.iter().any(|d| matches!(
            d,
            Discrepancy::MetadataMismatch {
                epoch_a: 3,
                epoch_b: 4
            }
        )));
        assert!(rep
            .discrepancies
            .iter()
            .any(|d| matches!(d, Discrepancy::RegionMissing { on_device: 'b', .. })));
        assert!(rep
            .discrepancies
            .iter()
            .any(|d| matches!(d, Discrepancy::RegionMissing { on_device: 'a', .. })));
    }

    #[test]
    fn finding_cap_respected() {
        let regs = vec![region("r", META_BYTES, 1 << 20)];
        let a = device_with_meta(regs.clone(), 3);
        let b = device_with_meta(regs, 3);
        // Corrupt many chunks.
        for i in 0..10u64 {
            b.lock().write(META_BYTES + i * 70_000, &[1]);
        }
        let rep = verify_mirrors(&a, &b, 3);
        assert_eq!(rep.discrepancies.len(), 3);
    }
}
