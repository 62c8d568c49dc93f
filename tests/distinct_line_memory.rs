//! The distinct-line count costs memory in proportion to the lines a
//! frame touches, not to where the texture heap sits in the address
//! space.

use dtexl_alloc::{meter_current_thread, AllocMeter};
use dtexl_mem::{line_of, TextureHierarchy, TextureHierarchyConfig};
use dtexl_scene::TEXTURE_BASE_ADDR;

#[test]
fn a_thousand_texture_lines_cost_kilobytes_not_megabytes() {
    // Textures start at line 4,194,304. A set indexed from line 0 zeroed
    // about 1 MiB per lane on the first miss (at least 4 MiB for four
    // lanes); the set has to follow the 1,000 lines touched instead.
    let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
    let base = line_of(TEXTURE_BASE_ADDR);
    let meter = AllocMeter::new();
    let guard = meter_current_thread(&meter);
    // Spread over 1 MiB of texture and over every SC, touched twice.
    for pass in 0..2 {
        for i in 0..1000u64 {
            h.access(((i + pass) % 4) as usize, base + i * 16);
        }
    }
    let distinct = h.distinct_lines();
    drop(guard);
    assert_eq!(distinct, 1000);
    assert!(
        meter.total_bytes() < 64 * 1024,
        "distinct-line tracking allocated {} bytes for 1,000 lines",
        meter.total_bytes()
    );
}
