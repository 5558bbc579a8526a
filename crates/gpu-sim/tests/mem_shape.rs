//! The memory-shape helpers shared by the cycle simulator and the static
//! predictor (`gpu_sim::mem::{smem_conflict_degree, coalesce_lines}`)
//! checked against brute-force definitions on warp-sized address sets.

use gpu_sim::mem::{coalesce_lines, smem_conflict_degree};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Serialized shared-memory passes by definition: per bank, the number
/// of distinct words it serves; the worst bank sets the degree, and an
/// empty or broadcast-only access still takes one pass.
fn reference_degree(addrs: &[u64]) -> u32 {
    (0..32u64)
        .map(|bank| {
            addrs.iter().map(|a| a / 4).filter(|w| w % 32 == bank).collect::<BTreeSet<_>>().len()
                as u32
        })
        .max()
        .unwrap_or(0)
        .max(1)
}

/// Distinct 128-byte lines, ascending.
fn reference_lines(addrs: &[u64]) -> Vec<u64> {
    addrs.iter().map(|a| a / 128).collect::<BTreeSet<_>>().into_iter().collect()
}

/// One lane's byte address. The narrow arm draws from 16 words spread over
/// 4 banks, so sets repeat words (broadcast) and put distinct words in one
/// bank; the other arms are strided and wide.
fn lane_addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0u64..4, 0u64..4, 0u64..4).prop_map(|(bank, k, byte)| 4 * (bank + 32 * k) + byte),
        (0u64..64).prop_map(|l| 0x1000 + 8 * l),
        any::<u32>().prop_map(u64::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn conflict_degree_matches_the_per_bank_definition(
        addrs in prop::collection::vec(lane_addr(), 0..=32),
    ) {
        prop_assert_eq!(smem_conflict_degree(addrs.iter().copied()), reference_degree(&addrs));
    }

    #[test]
    fn coalesced_lines_match_the_distinct_line_set(
        addrs in prop::collection::vec(lane_addr(), 0..=32),
    ) {
        prop_assert_eq!(coalesce_lines(addrs.iter().copied()).to_vec(), reference_lines(&addrs));
    }
}

#[test]
fn degree_edge_cases() {
    assert_eq!(smem_conflict_degree(std::iter::empty()), 1, "empty access takes one pass");
    assert!(coalesce_lines(std::iter::empty()).is_empty());
    // Two distinct words in bank 3, each read by many lanes: two passes.
    let two_words = (0..32u64).map(|l| 4 * (3 + 32 * (l % 2)));
    assert_eq!(smem_conflict_degree(two_words), 2);
    // Bytes of one word share it.
    assert_eq!(smem_conflict_degree([0u64, 1, 2, 3].into_iter()), 1);
}
