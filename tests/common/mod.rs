//! Shared test support for the integration suite.

use simcore::DurableStore;

/// Pull a PM region's bytes out of an NPMU image via the PMM's durable
/// metadata — exactly what an offline recovery tool would do. `skip_ctrl`
/// drops the leading control-cell bytes (pass `PM_CTRL_BYTES` to get only
/// trail data, 0 for the raw region including the cell). The bytes stop
/// at the region's last written block: the rest of the region reads as
/// zeros, so a caller that needs the full length zero-pads.
#[allow(dead_code)] // each integration-test binary uses its own subset
pub fn read_region(
    store: &mut DurableStore,
    device_key: &str,
    region_name: &str,
    skip_ctrl: u64,
) -> Vec<u8> {
    try_read_region(store, device_key, region_name, skip_ctrl).expect("region in device image")
}

/// Like [`read_region`], but `None` when the device image or region does
/// not exist yet — a crash can land before the region was ever created.
#[allow(dead_code)]
pub fn try_read_region(
    store: &mut DurableStore,
    device_key: &str,
    region_name: &str,
    skip_ctrl: u64,
) -> Option<Vec<u8>> {
    try_read_region_sized(store, device_key, region_name, skip_ctrl).map(|(bytes, _)| bytes)
}

/// [`try_read_region`] and the length of the whole region past
/// `skip_ctrl` — what the bytes would be zero-padded to.
#[allow(dead_code)]
pub fn try_read_region_sized(
    store: &mut DurableStore,
    device_key: &str,
    region_name: &str,
    skip_ctrl: u64,
) -> Option<(Vec<u8>, u64)> {
    let img = store.get::<npmu::NvImage>(device_key)?;
    let img = img.lock();
    let meta = pmm::MetaStore::recover(|off, len| img.read(off, len));
    let region = meta.find(region_name)?;
    let (base, len) = (region.base + skip_ctrl, region.len - skip_ctrl);
    let written = img.written_extent(base, len);
    Some((img.read(base, written as usize), len))
}
