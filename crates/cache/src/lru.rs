//! Constant-time exact-LRU recency tracking for small set-associative
//! structures.
//!
//! The seed implementation kept a monotonically increasing `lru: u64`
//! tick per way and scanned the whole set for the minimum on every
//! eviction. For ≤ 16 ways the same *exact* LRU order fits in one `u64`
//! as a packed permutation (4 bits per position), where a touch is a
//! branch-free move-to-front and the victim is a shift — no per-way tick
//! stores and no eviction-time scan.
//!
//! Equivalence to the tick scheme: a victim is only ever taken when all
//! ways of the set are valid, and every valid way was touched (install
//! counts as a touch) after the set was last not-full, so the ticks are
//! distinct and `min-tick` is precisely "least recently touched" — which
//! is the tail of this list. Invalid ways are re-installed through the
//! free-way path (lowest free index), never through the victim path, so
//! their stale positions in the permutation are harmless.

use serde::{Deserialize, Serialize};

/// Recency order of up to 16 ways, packed 4 bits per position; nibble 0
/// holds the most recently used way, nibble `ways-1` the LRU victim.
/// Serializes as the packed `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Recency(u64);

const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;
const NIBBLE_HI: u64 = 0x8888_8888_8888_8888;

impl Recency {
    /// The identity permutation: way `i` at position `i`.
    pub(crate) fn identity(ways: usize) -> Self {
        debug_assert!((1..=16).contains(&ways));
        let mut v = 0u64;
        for w in 0..ways as u64 {
            v |= w << (4 * w);
        }
        Recency(v)
    }

    /// Marks `way` as most recently used (branch-free move-to-front).
    #[expect(
        clippy::disallowed_methods,
        reason = "SWAR nibble tricks: the wrap-around is the textbook zero-nibble-search bit hack over a packed permutation, not counter arithmetic"
    )]
    #[inline]
    pub(crate) fn touch(&mut self, way: usize, ways: usize) {
        let w = way as u64;
        let active = !0u64 >> (64 - 4 * ways as u32);
        // SWAR zero-nibble search for `way`'s position; inactive high
        // nibbles are forced non-zero so they can never match way 0.
        let x = (self.0 ^ w.wrapping_mul(NIBBLE_LO)) | !active;
        let z = x.wrapping_sub(NIBBLE_LO) & !x & NIBBLE_HI;
        let p = z.trailing_zeros() >> 2;
        debug_assert!((p as usize) < ways, "way {way} not in recency list");
        // Keep positions above p, shift 0..p up one nibble, insert at 0.
        let upto = !0u64 >> (64 - 4 * (p + 1));
        let below = upto >> 4;
        self.0 = (self.0 & !upto) | ((self.0 & below) << 4) | w;
    }

    /// The least recently used way.
    #[inline]
    pub(crate) fn victim(self, ways: usize) -> usize {
        ((self.0 >> (4 * (ways as u32 - 1))) & 0xF) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: vector ordered most-recent-first.
    fn model_touch(order: &mut Vec<usize>, way: usize) {
        let p = order.iter().position(|&w| w == way).expect("way present");
        order.remove(p);
        order.insert(0, way);
    }

    #[test]
    fn identity_and_basic_moves() {
        let mut r = Recency::identity(4);
        assert_eq!(r.victim(4), 3);
        r.touch(3, 4);
        assert_eq!(r.victim(4), 2);
        r.touch(2, 4);
        r.touch(3, 4);
        // Order now [3, 2, 0, 1] most-recent-first.
        assert_eq!(r.victim(4), 1);
    }

    #[test]
    fn way_zero_with_inactive_high_nibbles() {
        // With < 16 ways the unused high nibbles are zero; touching way 0
        // must still find the *active* position.
        for ways in 1..=16 {
            let mut r = Recency::identity(ways);
            r.touch(0, ways);
            if ways > 1 {
                assert_eq!(r.victim(ways), ways - 1);
            } else {
                assert_eq!(r.victim(1), 0);
            }
        }
    }

    #[test]
    fn matches_reference_model_under_random_ops() {
        for ways in [2usize, 3, 8, 10, 11, 16] {
            let mut r = Recency::identity(ways);
            let mut model: Vec<usize> = (0..ways).collect();
            let mut state = 0x1234_5678_9abc_def0u64 ^ ways as u64;
            for _ in 0..10_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let way = (state % ways as u64) as usize;
                r.touch(way, ways);
                model_touch(&mut model, way);
                assert_eq!(r.victim(ways), *model.last().expect("non-empty"));
            }
        }
    }
}
