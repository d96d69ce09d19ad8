//! Arbitrary-precision unsigned integers (the mantissa type for [`crate::BigFloat`]).
//!
//! Only the operations the big-float layer needs are provided: addition,
//! subtraction, schoolbook multiplication, shifts, comparison, bit access and
//! word-level long division (Knuth's Algorithm D). Magnitudes are stored as
//! little-endian `u64` limbs with no leading zero limb.

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BigUint {
    /// Little-endian limbs; no trailing (most-significant) zero limbs.
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> BigUint {
        BigUint { limbs: vec![] }
    }

    /// One.
    pub fn one() -> BigUint {
        BigUint::from_u64(1)
    }

    /// From a single limb.
    pub fn from_u64(x: u64) -> BigUint {
        if x == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![x] }
        }
    }

    /// From a `u128`.
    pub fn from_u128(x: u128) -> BigUint {
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        let mut v = BigUint {
            limbs: vec![lo, hi],
        };
        v.normalize();
        v
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// The value of bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: u64) -> bool {
        let limb = (i / 64) as usize;
        let off = i % 64;
        match self.limbs.get(limb) {
            Some(&l) => (l >> off) & 1 == 1,
            None => false,
        }
    }

    /// True if any bit strictly below `i` is set (used for rounding sticky bits).
    pub fn any_bit_below(&self, i: u64) -> bool {
        let full_limbs = (i / 64) as usize;
        let off = i % 64;
        for l in self.limbs.iter().take(full_limbs) {
            if *l != 0 {
                return true;
            }
        }
        if off > 0 {
            if let Some(&l) = self.limbs.get(full_limbs) {
                if l & ((1u64 << off) - 1) != 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: u64) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = (bits % 64) as u32;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Right shift by `bits` (truncating).
    pub fn shr(&self, bits: u64) -> BigUint {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                limbs.push(lo | hi);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut limbs = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &a) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            limbs.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            limbs.push(carry);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Adds a single `u64`.
    pub fn add_u64(&self, x: u64) -> BigUint {
        self.add(&BigUint::from_u64(x))
    }

    /// Subtraction; `self` must be at least `other`.
    ///
    /// # Panics
    ///
    /// Panics if `self < other`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_mag(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = limbs[i + j] as u128 + (a as u128) * (b as u128) + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Magnitude comparison.
    pub fn cmp_mag(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Long division; returns `(quotient, remainder)`.
    ///
    /// Works a limb at a time: a one-limb divisor takes a single pass of
    /// `u128 / u64` steps, and a longer one uses Knuth's Algorithm D (TAOCP
    /// vol. 2, §4.3.1), which estimates each quotient limb from the top limbs of
    /// the normalized divisor and corrects an overestimate by adding back.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        if self.cmp_mag(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if let [d] = divisor.limbs[..] {
            let d = u128::from(d);
            let mut quotient = vec![0u64; self.limbs.len()];
            let mut rem = 0u128;
            for (q, &n) in quotient.iter_mut().zip(&self.limbs).rev() {
                let cur = (rem << 64) | u128::from(n);
                // `rem < d`, so the quotient limb fits in a `u64`.
                *q = (cur / d) as u64;
                rem = cur % d;
            }
            let mut q = BigUint { limbs: quotient };
            q.normalize();
            return (q, BigUint::from_u128(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Algorithm D for a divisor of at least two limbs, with `self >= divisor`.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: shift both operands so the divisor's top bit is set; each
        // quotient-limb estimate is then at most two too large.
        let shift = u64::from(divisor.limbs.last().expect("nonzero").leading_zeros());
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);
        let n = v.len();
        let (v_top, v_next) = (u128::from(v[n - 1]), u128::from(v[n - 2]));
        let mut quotient = vec![0u64; u.len() - n];
        // D2–D7: the window `u[j..=j + n]` is below `b · v` (b = 2^64), so it
        // yields one quotient limb.
        for j in (0..quotient.len()).rev() {
            // D3: estimate from the window's top two limbs, then refine with the
            // divisor's second limb until the estimate is below `b` and at most
            // one too large.
            let top = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
            let mut q_hat = top / v_top;
            let mut r_hat = top % v_top;
            while q_hat > u128::from(u64::MAX)
                || q_hat * v_next > ((r_hat << 64) | u128::from(u[j + n - 2]))
            {
                q_hat -= 1;
                r_hat += v_top;
                if r_hat > u128::from(u64::MAX) {
                    break;
                }
            }
            let mut q_hat = q_hat as u64;
            // D4: subtract `q_hat · v` from the window.
            let mut carry = 0u64;
            let mut borrow = false;
            for (i, &vi) in v.iter().enumerate() {
                let p = u128::from(q_hat) * u128::from(vi) + u128::from(carry);
                carry = (p >> 64) as u64;
                let (d1, b1) = u[j + i].overflowing_sub(p as u64);
                let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
                u[j + i] = d2;
                borrow = b1 || b2;
            }
            let (d1, b1) = u[j + n].overflowing_sub(carry);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            u[j + n] = d2;
            // D6: the window went negative, so `q_hat` was one too large; add
            // `v` back, dropping the carry out of the top limb.
            if b1 || b2 {
                q_hat -= 1;
                let mut carry = false;
                for (i, &vi) in v.iter().enumerate() {
                    let (s1, c1) = u[j + i].overflowing_add(vi);
                    let (s2, c2) = s1.overflowing_add(u64::from(carry));
                    u[j + i] = s2;
                    carry = c1 || c2;
                }
                u[j + n] = u[j + n].wrapping_add(u64::from(carry));
            }
            quotient[j] = q_hat;
        }
        let mut q = BigUint { limbs: quotient };
        q.normalize();
        // D8: the remainder is the low `n` limbs, shifted back.
        u.truncate(n);
        let mut r = BigUint { limbs: u };
        r.normalize();
        (q, r.shr(shift))
    }

    /// Integer square root (floor), via Newton's method.
    pub fn isqrt(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        // Initial guess: 2^(ceil(bits/2)), always an over-estimate.
        let mut x = BigUint::one().shl(self.bit_length().div_ceil(2));
        loop {
            // x' = (x + n / x) / 2
            let (q, _) = self.div_rem(&x);
            let next = x.add(&q).shr(1);
            if next.cmp_mag(&x) != Ordering::Less {
                break;
            }
            x = next;
        }
        // Newton from above lands on floor(sqrt(n)) or one too high; correct it.
        while x.mul(&x).cmp_mag(self) == Ordering::Greater {
            x = x.sub(&BigUint::one());
        }
        // And make sure we are not one too low either.
        loop {
            let next = x.add(&BigUint::one());
            if next.mul(&next).cmp_mag(self) == Ordering::Greater {
                break;
            }
            x = next;
        }
        x
    }

    /// Low 64 bits (lossy for larger values).
    pub fn to_u64_lossy(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// The top `n` bits as a `u64` (with `n <= 64`), i.e. the integer formed by
    /// the most significant `n` bits.
    pub fn top_bits(&self, n: u64) -> u64 {
        debug_assert!(n <= 64);
        let len = self.bit_length();
        if len <= n {
            self.to_u64_padded()
        } else {
            self.shr(len - n).to_u64_padded()
        }
    }

    fn to_u64_padded(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(x: u128) -> BigUint {
        BigUint::from_u128(x)
    }

    #[test]
    fn construction_and_bits() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::zero().bit_length(), 0);
        assert_eq!(BigUint::from_u64(1).bit_length(), 1);
        assert_eq!(BigUint::from_u64(255).bit_length(), 8);
        assert_eq!(big(1u128 << 100).bit_length(), 101);
        assert!(big(1u128 << 100).bit(100));
        assert!(!big(1u128 << 100).bit(99));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = big(0xFFFF_FFFF_FFFF_FFFF_FFFF);
        let b = big(0x1_0000_0000);
        let sum = a.add(&b);
        assert_eq!(sum.sub(&b), a);
        assert_eq!(sum.sub(&a), b);
        assert_eq!(a.add(&BigUint::zero()), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::from_u64(1).sub(&BigUint::from_u64(2));
    }

    #[test]
    fn multiplication() {
        let a = big(u128::from(u64::MAX));
        let b = big(u128::from(u64::MAX));
        let prod = a.mul(&b);
        assert_eq!(prod, big(u128::from(u64::MAX) * u128::from(u64::MAX)));
        assert!(a.mul(&BigUint::zero()).is_zero());
        // (2^100)^2 = 2^200
        let sq = big(1u128 << 100).mul(&big(1u128 << 100));
        assert_eq!(sq.bit_length(), 201);
        assert!(sq.bit(200));
    }

    #[test]
    fn shifts() {
        let a = big(0b1011);
        assert_eq!(a.shl(3), big(0b1011000));
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(a.shr(2), big(0b10));
        assert_eq!(a.shr(10), BigUint::zero());
        assert!(a.shl(64).bit(64));
    }

    #[test]
    fn sticky_bits() {
        let a = big(0b101000);
        assert!(!a.any_bit_below(3));
        assert!(a.any_bit_below(4));
        assert!(!BigUint::zero().any_bit_below(64));
    }

    #[test]
    fn division() {
        let a = big(1234567890123456789012345678u128);
        let b = big(97531);
        let (q, r) = a.div_rem(&b);
        assert_eq!(
            q.mul(&b).add(&r),
            a,
            "quotient * divisor + remainder must equal dividend"
        );
        assert!(r.cmp_mag(&b) == Ordering::Less);
        // Exact division
        let (q, r) = big(1u128 << 90).div_rem(&big(1u128 << 30));
        assert_eq!(q, big(1u128 << 60));
        assert!(r.is_zero());
        // Divisor larger than dividend
        let (q, r) = big(5).div_rem(&big(100));
        assert!(q.is_zero());
        assert_eq!(r, big(5));
    }

    fn from_limbs(limbs: &[u64]) -> BigUint {
        let mut v = BigUint {
            limbs: limbs.to_vec(),
        };
        v.normalize();
        v
    }

    /// SplitMix64 step, the workspace's standard seeded generator.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Half the limbs are uniform, half are edge values for carries and
    /// quotient-limb estimates.
    fn draw_limb(state: &mut u64) -> u64 {
        const EDGES: [u64; 6] = [0, 1, (1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX];
        let r = splitmix64(state);
        if r & 1 == 0 {
            EDGES[(r >> 1) as usize % EDGES.len()]
        } else {
            splitmix64(state)
        }
    }

    fn assert_division(n: &BigUint, d: &BigUint) -> (BigUint, BigUint) {
        let (q, r) = n.div_rem(d);
        assert_eq!(&q.mul(d).add(&r), n, "q·d + r != n for {n:?} / {d:?}");
        assert_eq!(r.cmp_mag(d), Ordering::Less, "r >= d for {n:?} / {d:?}");
        // Equality and `bit_length` rely on normalized limbs.
        assert_ne!(q.limbs.last(), Some(&0));
        assert_ne!(r.limbs.last(), Some(&0));
        (q, r)
    }

    #[test]
    fn division_matches_its_definition_on_seeded_operands() {
        let mut state = 0x5eed_d1f1;
        for shift in 0..64 {
            for d_len in 1..=6 {
                for n_len in 1..=8 {
                    for _ in 0..2 {
                        let n: Vec<u64> = (0..n_len).map(|_| draw_limb(&mut state)).collect();
                        let mut d: Vec<u64> = (0..d_len).map(|_| draw_limb(&mut state)).collect();
                        // Pin the divisor's top limb to exactly `shift` leading
                        // zeros, so every normalization shift occurs.
                        d[d_len - 1] = (d[d_len - 1] >> shift) | (1 << (63 - shift));
                        let d = from_limbs(&d);
                        assert_eq!(d.limbs.last().unwrap().leading_zeros(), shift);
                        assert_division(&from_limbs(&n), &d);
                    }
                }
            }
        }
    }

    #[test]
    fn division_reaches_the_add_back_step() {
        const HALF: u64 = 1 << 63;
        let (q, _) = assert_division(
            &from_limbs(&[0, 0, HALF, HALF - 1]),
            &from_limbs(&[1, 0, HALF]),
        );
        assert_eq!(q, BigUint::from_u64(u64::MAX - 1));
        let (q, r) = assert_division(&from_limbs(&[3, 0, HALF]), &from_limbs(&[1, 0, 1 << 61]));
        assert_eq!(q, BigUint::from_u64(3));
        assert_eq!(r, BigUint::one().shl(189));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn integer_sqrt() {
        for n in [0u128, 1, 2, 3, 4, 15, 16, 17, 1_000_000, 999_999_999_999] {
            let s = big(n).isqrt();
            let s_val = s.to_u64_lossy() as u128;
            assert!(s_val * s_val <= n);
            assert!((s_val + 1) * (s_val + 1) > n, "sqrt({n}) too small");
        }
        // A large perfect square: (2^80 + 3)^2
        let root = big((1u128 << 80) + 3);
        let square = root.mul(&root);
        assert_eq!(square.isqrt(), root);
    }

    #[test]
    fn top_bits() {
        let a = big(0b1101_0000_0000);
        assert_eq!(a.top_bits(4), 0b1101);
        assert_eq!(a.top_bits(2), 0b11);
        assert_eq!(BigUint::from_u64(7).top_bits(10), 7);
    }

    #[test]
    fn comparison() {
        assert_eq!(big(5).cmp_mag(&big(5)), Ordering::Equal);
        assert_eq!(big(4).cmp_mag(&big(5)), Ordering::Less);
        assert_eq!(
            big(1u128 << 70).cmp_mag(&big(u64::MAX as u128)),
            Ordering::Greater
        );
    }
}
