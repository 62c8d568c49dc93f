//! Test-only reference model: its `pub` items are not API and its
//! panics are test code.

/// The slow reference for `tile_count`.
pub fn reference_tile_count(width: u32) -> u32 {
    u32::try_from((u64::from(width) + 7) / 8).unwrap()
}
