//! Fixed-width 320-bit unsigned labels for naive-k.
//!
//! naive-k's labels need ⌈log N⌉ + k bits; the paper runs k up to 256, so
//! 64-bit (or even 128-bit) machine words cannot hold them — which is
//! exactly the paper's point about long labels. Five 64-bit limbs cover
//! every configuration the experiments use (k ≤ 280).

use boxes_pager::codec::u32_to_usize;

/// A 320-bit unsigned integer, little-endian limbs. `Ord` compares
/// numerically (most-significant limb first).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BigLabel(pub [u64; 5]);

/// Low 64 bits of a double-width product — the limb that stays, with the
/// carry shifted out separately.
#[inline]
fn low_limb(v: u128) -> u64 {
    u64::try_from(v & u128::from(u64::MAX)).unwrap_or(0) // mask makes this infallible
}

impl Ord for BigLabel {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_num(other)
    }
}

impl PartialOrd for BigLabel {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[expect(
    clippy::should_implement_trait,
    reason = "named add/sub/half keep the fixed-width label arithmetic visible at call sites"
)]
impl BigLabel {
    /// The value 0.
    pub const ZERO: BigLabel = BigLabel([0; 5]);

    /// Total bits.
    pub const BITS: u32 = 320;

    /// From a small value.
    pub fn from_u64(v: u64) -> Self {
        BigLabel([v, 0, 0, 0, 0])
    }

    /// 2^k.
    pub fn pow2(k: u32) -> Self {
        assert!(k < Self::BITS, "exponent too large for BigLabel");
        let mut limbs = [0u64; 5];
        limbs[u32_to_usize(k / 64)] = 1u64 << (k % 64);
        BigLabel(limbs)
    }

    /// Checked addition (panics on overflow — label space exhausted).
    pub fn add(self, rhs: BigLabel) -> BigLabel {
        let mut out = [0u64; 5];
        let mut carry = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        assert_eq!(carry, 0, "BigLabel overflow");
        BigLabel(out)
    }

    /// Subtraction (panics on underflow).
    pub fn sub(self, rhs: BigLabel) -> BigLabel {
        let mut out = [0u64; 5];
        let mut borrow = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *limb = d2;
            borrow = u64::from(b1) + u64::from(b2);
        }
        assert_eq!(borrow, 0, "BigLabel underflow");
        BigLabel(out)
    }

    /// Halve (shift right by one bit).
    pub fn half(self) -> BigLabel {
        let mut out = [0u64; 5];
        let mut carry = 0u64;
        for i in (0..5).rev() {
            out[i] = (self.0[i] >> 1) | (carry << 63);
            carry = self.0[i] & 1;
        }
        BigLabel(out)
    }

    /// Multiply by a small factor (panics on overflow).
    pub fn mul_u64(self, rhs: u64) -> BigLabel {
        let mut out = [0u64; 5];
        let mut carry = 0u128;
        for (i, limb) in out.iter_mut().enumerate() {
            let prod = u128::from(self.0[i]) * u128::from(rhs) + carry;
            *limb = low_limb(prod);
            carry = prod >> 64;
        }
        assert_eq!(carry, 0, "BigLabel overflow");
        BigLabel(out)
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Whether the value is one.
    pub fn is_one(&self) -> bool {
        self.0[0] == 1 && self.0[1..].iter().all(|&l| l == 0)
    }

    /// Position of the highest set bit + 1 (0 for zero) — the bit length.
    pub fn bits(&self) -> u32 {
        let mut hi = Self::BITS;
        for &limb in self.0.iter().rev() {
            if limb != 0 {
                return hi - limb.leading_zeros();
            }
            hi -= 64;
        }
        0
    }

    /// Serialize the low `nbytes` bytes (panics if the value needs more).
    pub fn write_bytes(&self, out: &mut [u8]) {
        let nbytes = out.len();
        assert!(
            u32_to_usize(self.bits()) <= nbytes * 8,
            "BigLabel needs more than {nbytes} bytes"
        );
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = self.0[i / 8].to_le_bytes()[i % 8];
        }
    }

    /// Deserialize from `bytes.len()` little-endian bytes.
    pub fn read_bytes(bytes: &[u8]) -> Self {
        let mut limbs = [0u64; 5];
        for (i, &byte) in bytes.iter().enumerate() {
            limbs[i / 8] |= u64::from(byte) << ((i % 8) * 8);
        }
        BigLabel(limbs)
    }
}

impl BigLabel {
    /// Numeric comparison.
    pub fn cmp_num(&self, other: &Self) -> std::cmp::Ordering {
        for i in (0..5).rev() {
            match self.0[i].cmp(&other.0[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl std::fmt::Debug for BigLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0[1..].iter().all(|&l| l == 0) {
            write!(f, "{}", self.0[0])
        } else {
            write!(
                f,
                "0x{:x}_{:016x}_{:016x}_{:016x}_{:016x}",
                self.0[4], self.0[3], self.0[2], self.0[1], self.0[0]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn arithmetic_small_values() {
        let a = BigLabel::from_u64(100);
        let b = BigLabel::from_u64(42);
        assert_eq!(a.add(b), BigLabel::from_u64(142));
        assert_eq!(a.sub(b), BigLabel::from_u64(58));
        assert_eq!(a.half(), BigLabel::from_u64(50));
        assert_eq!(BigLabel::from_u64(101).half(), BigLabel::from_u64(50));
        assert_eq!(a.mul_u64(7), BigLabel::from_u64(700));
    }

    #[test]
    fn carries_across_limbs() {
        let max_low = BigLabel([u64::MAX, 0, 0, 0, 0]);
        let one = BigLabel::from_u64(1);
        assert_eq!(max_low.add(one), BigLabel([0, 1, 0, 0, 0]));
        assert_eq!(BigLabel([0, 1, 0, 0, 0]).sub(one), max_low);
        assert_eq!(BigLabel([0, 2, 0, 0, 0]).half(), BigLabel([0, 1, 0, 0, 0]));
        assert_eq!(
            BigLabel([0, 1, 0, 0, 0]).half(),
            BigLabel([1u64 << 63, 0, 0, 0, 0])
        );
    }

    #[test]
    fn pow2_and_bits() {
        assert_eq!(BigLabel::pow2(0), BigLabel::from_u64(1));
        assert_eq!(BigLabel::pow2(64), BigLabel([0, 1, 0, 0, 0]));
        assert_eq!(BigLabel::pow2(256).bits(), 257);
        assert_eq!(BigLabel::from_u64(255).bits(), 8);
        assert_eq!(BigLabel::ZERO.bits(), 0);
    }

    #[test]
    fn numeric_comparison_uses_high_limbs() {
        let big = BigLabel([0, 0, 0, 0, 1]);
        let small = BigLabel([u64::MAX, u64::MAX, 0, 0, 0]);
        assert_eq!(big.cmp_num(&small), Ordering::Greater);
        assert_eq!(small.cmp_num(&big), Ordering::Less);
        assert_eq!(big.cmp_num(&big), Ordering::Equal);
    }

    #[test]
    fn byte_roundtrip_variable_width() {
        for nbytes in [5usize, 12, 33, 40] {
            let v = BigLabel::pow2((nbytes as u32 * 8) - 3).add(BigLabel::from_u64(12345));
            let mut buf = vec![0u8; nbytes];
            v.write_bytes(&mut buf);
            assert_eq!(BigLabel::read_bytes(&buf), v);
        }
    }

    #[test]
    #[should_panic(expected = "more than")]
    fn oversized_write_panics() {
        let mut buf = [0u8; 2];
        BigLabel::pow2(40).write_bytes(&mut buf);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        BigLabel::from_u64(1).sub(BigLabel::from_u64(2));
    }

    #[test]
    fn adversarial_halving_takes_k_plus_one_steps() {
        // Gap 2^k halves to 1 in exactly k steps; the (k+1)-st insert
        // has no room — matching the paper's adversary analysis.
        let mut gap = BigLabel::pow2(256);
        let mut steps = 0;
        while !gap.is_one() {
            gap = gap.half();
            steps += 1;
        }
        assert_eq!(steps, 256);
    }
}
