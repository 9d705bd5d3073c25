//! Arbitrary-width bit vectors with two's-complement arithmetic.
//!
//! [`Bits`] is the value type used everywhere in `bittrans`: constants in
//! specifications, functional-simulation values, and expected results in
//! tests. A `Bits` has an explicit width in bits; all bits above the width
//! are guaranteed to be zero (the *canonical form* invariant).
//!
//! # Examples
//!
//! ```
//! use bittrans_ir::bits::Bits;
//!
//! let a = Bits::from_u64(0b1011, 4);
//! let b = Bits::from_u64(0b0110, 4);
//! let sum = a.add_full(&b); // 5-bit result, carry preserved
//! assert_eq!(sum.width(), 5);
//! assert_eq!(sum.to_u64(), 0b10001);
//! ```

use std::cmp::Ordering;
use std::fmt;

const WORD_BITS: usize = 64;

/// An arbitrary-width vector of bits in canonical (masked) form.
///
/// Bit 0 is the least-significant bit. Unsigned and two's-complement signed
/// interpretations are provided by separate methods rather than by a type
/// parameter; the bits themselves are representation-agnostic.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    /// Width in bits. May be zero (the empty vector).
    width: usize,
    /// Little-endian 64-bit words; `ceil(width / 64)` entries, top word masked.
    words: Vec<u64>,
}

impl Bits {
    /// Creates an all-zero vector of `width` bits.
    pub fn zero(width: usize) -> Self {
        Bits { width, words: vec![0; words_for(width)] }
    }

    /// Creates an all-ones vector of `width` bits.
    pub fn ones(width: usize) -> Self {
        let mut b = Bits { width, words: vec![!0u64; words_for(width)] };
        b.mask_top();
        b
    }

    /// Creates a vector holding the low `width` bits of `value`.
    ///
    /// Bits of `value` above `width` are discarded (wrapping semantics).
    pub fn from_u64(value: u64, width: usize) -> Self {
        let mut b = Bits::zero(width);
        if width > 0 {
            b.words[0] = value;
            b.mask_top();
        }
        b
    }

    /// Creates a vector from the two's-complement encoding of `value`.
    ///
    /// The value wraps modulo 2^width, so e.g. `from_i64(-1, 4)` is `0b1111`.
    pub fn from_i64(value: i64, width: usize) -> Self {
        let mut b = Bits::zero(width);
        for w in b.words.iter_mut() {
            *w = value as u64; // sign-extends across words
                               // after the first word the i64 has been consumed; replicate sign
        }
        if b.words.len() > 1 {
            let sign = if value < 0 { !0u64 } else { 0 };
            for w in b.words.iter_mut().skip(1) {
                *w = sign;
            }
        }
        b.mask_top();
        b
    }

    /// Parses a binary string (MSB first), e.g. `"1011"` → width 4 value 11.
    ///
    /// Underscores are permitted as visual separators.
    ///
    /// # Errors
    ///
    /// Returns `None` if the string contains a character other than
    /// `0`, `1`, or `_`.
    pub fn parse_binary(s: &str) -> Option<Self> {
        let digits: Vec<bool> = s
            .chars()
            .filter(|&c| c != '_')
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect::<Option<Vec<bool>>>()?;
        let mut b = Bits::zero(digits.len());
        for (i, &bit) in digits.iter().rev().enumerate() {
            b.set(i, bit);
        }
        Some(b)
    }

    /// Width of the vector in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Returns `true` if the width is zero.
    pub fn is_empty(&self) -> bool {
        self.width == 0
    }

    /// Returns `true` if every bit is zero (including the empty vector).
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "bit index {i} out of range 0..{}", self.width);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.width, "bit index {i} out of range 0..{}", self.width);
        let mask = 1u64 << (i % WORD_BITS);
        if bit {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// The most-significant bit, i.e. the sign bit under a signed reading.
    ///
    /// The empty vector has no sign; this returns `false` for it.
    pub fn sign_bit(&self) -> bool {
        if self.width == 0 {
            false
        } else {
            self.get(self.width - 1)
        }
    }

    /// Interprets the vector as an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 64 bits (width may exceed 64 as
    /// long as the high bits are zero).
    pub fn to_u64(&self) -> u64 {
        for (i, &w) in self.words.iter().enumerate() {
            assert!(i == 0 || w == 0, "Bits value does not fit in u64");
        }
        self.words.first().copied().unwrap_or(0)
    }

    /// Interprets the vector as an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 128 bits.
    pub fn to_u128(&self) -> u128 {
        for (i, &w) in self.words.iter().enumerate() {
            assert!(i <= 1 || w == 0, "Bits value does not fit in u128");
        }
        let lo = self.words.first().copied().unwrap_or(0) as u128;
        let hi = self.words.get(1).copied().unwrap_or(0) as u128;
        (hi << 64) | lo
    }

    /// Interprets the vector as a two's-complement signed integer.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `i64`.
    pub fn to_i64(&self) -> i64 {
        if self.width == 0 {
            return 0;
        }
        if self.sign_bit() {
            let magnitude = self.neg_mod(self.width).to_u64();
            assert!(magnitude <= i64::MAX as u64 + 1, "Bits value does not fit in i64");
            (magnitude as i64).wrapping_neg()
        } else {
            let v = self.to_u64();
            assert!(v <= i64::MAX as u64, "Bits value does not fit in i64");
            v as i64
        }
    }

    /// Zero-extends (or truncates) to `width` bits.
    pub fn zext(&self, width: usize) -> Self {
        let mut out = Bits::zero(width);
        let n = out.words.len().min(self.words.len());
        out.words[..n].copy_from_slice(&self.words[..n]);
        out.mask_top();
        out
    }

    /// Sign-extends (or truncates) to `width` bits.
    ///
    /// The empty vector sign-extends to zero.
    pub fn sext(&self, width: usize) -> Self {
        if width <= self.width || !self.sign_bit() {
            return self.zext(width);
        }
        let mut out = Bits::ones(width);
        for i in 0..self.words.len().min(out.words.len()) {
            out.words[i] = self.words[i];
        }
        // Fill the bits between self.width and the word boundary with ones.
        let word = self.width / WORD_BITS;
        if word < out.words.len() {
            let bit = self.width % WORD_BITS;
            if bit != 0 {
                out.words[word] |= !0u64 << bit;
            } else if word < out.words.len() {
                // self.width is word-aligned: the fill loop above already
                // wrote this word from `self`; restore ones from here up.
                for w in out.words.iter_mut().skip(word) {
                    if self.words.len() <= word {
                        *w = !0;
                    }
                }
            }
        }
        // Words fully above self's storage stay all-ones from the init.
        out.mask_top();
        out
    }

    /// Extends per `signed`: [`sext`](Self::sext) when `true`, else
    /// [`zext`](Self::zext).
    pub fn ext(&self, width: usize, signed: bool) -> Self {
        if signed {
            self.sext(width)
        } else {
            self.zext(width)
        }
    }

    /// Extracts `width` bits starting at bit `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo + width > self.width()`.
    pub fn slice(&self, lo: usize, width: usize) -> Self {
        assert!(
            lo + width <= self.width,
            "slice [{lo}, {}) out of range 0..{}",
            lo + width,
            self.width
        );
        let mut out = Bits::zero(width);
        for i in 0..width {
            out.set(i, self.get(lo + i));
        }
        out
    }

    /// Concatenates: `self` provides the low bits, `high` the high bits.
    pub fn concat(&self, high: &Bits) -> Self {
        let mut out = Bits::zero(self.width + high.width);
        for i in 0..self.width {
            out.set(i, self.get(i));
        }
        for i in 0..high.width {
            out.set(self.width + i, high.get(i));
        }
        out
    }

    /// Bitwise NOT at the same width.
    pub fn not(&self) -> Self {
        let mut out = Bits { width: self.width, words: self.words.iter().map(|&w| !w).collect() };
        out.mask_top();
        out
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn and(&self, other: &Bits) -> Self {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn or(&self, other: &Bits) -> Self {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor(&self, other: &Bits) -> Self {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Full-width addition: the result has `max(widths) + 1` bits so the
    /// carry out is never lost.
    pub fn add_full(&self, other: &Bits) -> Self {
        let w = self.width.max(other.width) + 1;
        let a = self.zext(w);
        let b = other.zext(w);
        let mut out = Bits::zero(w);
        let mut carry = 0u64;
        for i in 0..out.words.len() {
            let (s1, c1) = a.words[i].overflowing_add(b.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Addition modulo 2^width at `width` bits, with an optional carry in.
    ///
    /// Operands are zero-extended or truncated to `width` first.
    pub fn add_mod(&self, other: &Bits, carry_in: bool, width: usize) -> Self {
        let a = self.zext(width);
        let b = other.zext(width);
        let mut out = Bits::zero(width);
        let mut carry = carry_in as u64;
        for i in 0..out.words.len() {
            let (s1, c1) = a.words[i].overflowing_add(b.words[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.words[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        out.mask_top();
        out
    }

    /// Subtraction modulo 2^width at `width` bits (`self - other`).
    pub fn sub_mod(&self, other: &Bits, width: usize) -> Self {
        let b = other.zext(width);
        self.zext(width).add_mod(&b.not(), true, width)
    }

    /// Two's-complement negation modulo 2^width.
    pub fn neg_mod(&self, width: usize) -> Self {
        Bits::zero(width).sub_mod(self, width)
    }

    /// Full unsigned product: the result has `self.width + other.width` bits.
    pub fn mul_full(&self, other: &Bits) -> Self {
        let w = self.width + other.width;
        let mut out = Bits::zero(w);
        if w == 0 {
            return out;
        }
        // Schoolbook multiplication on 32-bit half-words via u64 partials.
        let a = halves(&self.words, self.width);
        let b = halves(&other.words, other.width);
        let mut acc = vec![0u64; a.len() + b.len() + 1];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let t = acc[i + j] + (ai as u64) * (bj as u64) + carry;
                acc[i + j] = t & 0xFFFF_FFFF;
                carry = t >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = acc[k] + carry;
                acc[k] = t & 0xFFFF_FFFF;
                carry = t >> 32;
                k += 1;
            }
        }
        for (h, &half) in acc.iter().enumerate() {
            let bit = h * 32;
            if bit >= w {
                break;
            }
            let word = bit / WORD_BITS;
            if bit % WORD_BITS == 0 {
                out.words[word] |= half;
            } else {
                out.words[word] |= half << 32;
                if word + 1 < out.words.len() {
                    out.words[word + 1] |= half >> 32;
                }
            }
        }
        out.mask_top();
        out
    }

    /// Signed full product (`self.width + other.width` bits), interpreting
    /// both operands in two's complement.
    pub fn mul_full_signed(&self, other: &Bits) -> Self {
        let w = self.width + other.width;
        let a_neg = self.sign_bit();
        let b_neg = other.sign_bit();
        let a_mag = if a_neg { self.neg_mod(self.width) } else { self.clone() };
        let b_mag = if b_neg { other.neg_mod(other.width) } else { other.clone() };
        let mag = a_mag.mul_full(&b_mag);
        if a_neg ^ b_neg {
            mag.neg_mod(w)
        } else {
            mag.zext(w)
        }
    }

    /// Logical shift left by `k`, keeping the width (high bits drop off).
    pub fn shl(&self, k: usize) -> Self {
        let mut out = Bits::zero(self.width);
        for i in k..self.width {
            out.set(i, self.get(i - k));
        }
        out
    }

    /// Logical shift right by `k`, keeping the width (zero fill).
    pub fn shr(&self, k: usize) -> Self {
        let mut out = Bits::zero(self.width);
        for i in 0..self.width.saturating_sub(k) {
            out.set(i, self.get(i + k));
        }
        out
    }

    /// Arithmetic shift right by `k`, keeping the width (sign fill).
    pub fn sar(&self, k: usize) -> Self {
        let sign = self.sign_bit();
        let mut out = if sign { Bits::ones(self.width) } else { Bits::zero(self.width) };
        for i in 0..self.width.saturating_sub(k) {
            out.set(i, self.get(i + k));
        }
        out
    }

    /// Unsigned comparison.
    pub fn cmp_unsigned(&self, other: &Bits) -> Ordering {
        let n = self.words.len().max(other.words.len());
        for i in (0..n).rev() {
            let a = self.words.get(i).copied().unwrap_or(0);
            let b = other.words.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Two's-complement signed comparison.
    pub fn cmp_signed(&self, other: &Bits) -> Ordering {
        match (self.sign_bit(), other.sign_bit()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => {
                let w = self.width.max(other.width);
                self.sext(w).cmp_unsigned(&other.sext(w))
            }
        }
    }

    /// OR-reduction of all bits.
    pub fn reduce_or(&self) -> bool {
        !self.is_zero()
    }

    /// AND-reduction of all bits. The empty vector reduces to `true`
    /// (the identity of AND).
    pub fn reduce_and(&self) -> bool {
        (0..self.width).all(|i| self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over bits, least-significant first.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.get(i))
    }

    fn zip_words(&self, other: &Bits, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.width, other.width,
            "bitwise operation on mismatched widths {} vs {}",
            self.width, other.width
        );
        let mut out = Bits {
            width: self.width,
            words: self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect(),
        };
        out.mask_top();
        out
    }

    fn mask_top(&mut self) {
        let rem = self.width % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

fn words_for(width: usize) -> usize {
    width.div_ceil(WORD_BITS)
}

/// Splits words into 32-bit halves covering `width` bits.
fn halves(words: &[u64], width: usize) -> Vec<u32> {
    let n = width.div_ceil(32);
    let mut out = Vec::with_capacity(n);
    for h in 0..n {
        let word = words[h / 2];
        out.push(if h % 2 == 0 { word as u32 } else { (word >> 32) as u32 });
    }
    out
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bits({}'b{:b})", self.width, self)
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{:b}", self.width, self)
    }
}

impl fmt::Binary for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "0");
        }
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.width == 0 {
            return write!(f, "0");
        }
        let digits = self.width.div_ceil(4);
        for d in (0..digits).rev() {
            let lo = d * 4;
            let hi = (lo + 4).min(self.width);
            let nibble = self.slice(lo, hi - lo).to_u64();
            write!(f, "{nibble:x}")?;
        }
        Ok(())
    }
}

impl From<bool> for Bits {
    fn from(b: bool) -> Self {
        Bits::from_u64(b as u64, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_ones() {
        assert!(Bits::zero(100).is_zero());
        let ones = Bits::ones(100);
        assert_eq!(ones.count_ones(), 100);
        assert!(ones.reduce_and());
    }

    #[test]
    fn from_u64_masks() {
        let b = Bits::from_u64(0xFF, 4);
        assert_eq!(b.to_u64(), 0xF);
        assert_eq!(b.width(), 4);
    }

    #[test]
    fn from_i64_negative() {
        let b = Bits::from_i64(-1, 7);
        assert_eq!(b.to_u64(), 0x7F);
        assert_eq!(b.to_i64(), -1);
        let c = Bits::from_i64(-5, 70);
        assert_eq!(c.to_i64(), -5);
        assert!(c.sign_bit());
    }

    #[test]
    fn parse_binary_roundtrip() {
        let b = Bits::parse_binary("1010_1100").unwrap();
        assert_eq!(b.width(), 8);
        assert_eq!(b.to_u64(), 0xAC);
        assert!(Bits::parse_binary("10x1").is_none());
    }

    #[test]
    fn get_set() {
        let mut b = Bits::zero(130);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bits::zero(8).get(8);
    }

    #[test]
    fn zext_sext() {
        let b = Bits::from_u64(0b1010, 4); // signed -6
        assert_eq!(b.zext(8).to_u64(), 0b0000_1010);
        assert_eq!(b.sext(8).to_u64(), 0b1111_1010);
        assert_eq!(b.sext(8).to_i64(), -6);
        assert_eq!(b.sext(2).to_u64(), 0b10); // truncation
                                              // extension across word boundaries
        let c = Bits::from_i64(-3, 64);
        assert_eq!(c.sext(130).to_i64(), -3);
    }

    #[test]
    fn sext_word_aligned_width() {
        let b = Bits::from_i64(-1, 64);
        assert_eq!(b.sext(128).to_i64(), -1);
        let c = Bits::from_u64(1, 64);
        assert_eq!(c.sext(128).to_u64(), 1);
    }

    #[test]
    fn slice_and_concat() {
        let b = Bits::from_u64(0b110110, 6);
        assert_eq!(b.slice(1, 3).to_u64(), 0b011);
        assert_eq!(b.slice(3, 3).to_u64(), 0b110);
        let lo = Bits::from_u64(0b01, 2);
        let hi = Bits::from_u64(0b11, 2);
        assert_eq!(lo.concat(&hi).to_u64(), 0b1101);
    }

    #[test]
    fn add_full_keeps_carry() {
        let a = Bits::from_u64(0xFFFF, 16);
        let b = Bits::from_u64(1, 16);
        let s = a.add_full(&b);
        assert_eq!(s.width(), 17);
        assert_eq!(s.to_u64(), 0x10000);
    }

    #[test]
    fn add_mod_wraps() {
        let a = Bits::from_u64(0xFFFF, 16);
        let b = Bits::from_u64(1, 16);
        assert_eq!(a.add_mod(&b, false, 16).to_u64(), 0);
        assert_eq!(a.add_mod(&b, true, 16).to_u64(), 1);
    }

    #[test]
    fn sub_and_neg() {
        let a = Bits::from_u64(5, 8);
        let b = Bits::from_u64(9, 8);
        assert_eq!(a.sub_mod(&b, 8).to_i64(), -4);
        assert_eq!(b.sub_mod(&a, 8).to_u64(), 4);
        assert_eq!(a.neg_mod(8).to_i64(), -5);
    }

    #[test]
    fn mul_full_small() {
        let a = Bits::from_u64(12, 4);
        let b = Bits::from_u64(10, 4);
        let p = a.mul_full(&b);
        assert_eq!(p.width(), 8);
        assert_eq!(p.to_u64(), 120);
    }

    #[test]
    fn mul_full_wide() {
        let a = Bits::from_u64(u64::MAX, 64);
        let p = a.mul_full(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(p.to_u128(), (u64::MAX as u128) * (u64::MAX as u128));
    }

    #[test]
    fn mul_signed() {
        let a = Bits::from_i64(-3, 4);
        let b = Bits::from_i64(5, 4);
        assert_eq!(a.mul_full_signed(&b).to_i64(), -15);
        let c = Bits::from_i64(-8, 4); // most negative
        assert_eq!(c.mul_full_signed(&c).to_u64(), 64);
    }

    #[test]
    fn shifts() {
        let b = Bits::from_u64(0b1001, 4);
        assert_eq!(b.shl(1).to_u64(), 0b0010);
        assert_eq!(b.shr(1).to_u64(), 0b0100);
        assert_eq!(b.sar(1).to_u64(), 0b1100);
        assert_eq!(b.shr(10).to_u64(), 0);
    }

    #[test]
    fn comparisons() {
        let a = Bits::from_i64(-1, 8); // 255 unsigned
        let b = Bits::from_u64(3, 8);
        assert_eq!(a.cmp_unsigned(&b), Ordering::Greater);
        assert_eq!(a.cmp_signed(&b), Ordering::Less);
        assert_eq!(a.cmp_signed(&a), Ordering::Equal);
        // mixed widths
        let c = Bits::from_i64(-1, 4);
        assert_eq!(c.cmp_signed(&Bits::from_i64(-1, 12)), Ordering::Equal);
    }

    #[test]
    fn reductions() {
        assert!(Bits::from_u64(8, 4).reduce_or());
        assert!(!Bits::zero(4).reduce_or());
        assert!(Bits::ones(4).reduce_and());
        assert!(!Bits::from_u64(7, 4).reduce_and());
        assert!(Bits::zero(0).reduce_and());
    }

    #[test]
    fn formatting() {
        let b = Bits::from_u64(0xAC, 8);
        assert_eq!(format!("{b:b}"), "10101100");
        assert_eq!(format!("{b:x}"), "ac");
        assert_eq!(format!("{b}"), "8'b10101100");
        assert!(!format!("{:?}", Bits::zero(0)).is_empty());
    }

    #[test]
    fn empty_vector() {
        let e = Bits::zero(0);
        assert!(e.is_empty() && e.is_zero());
        assert_eq!(e.add_full(&e).width(), 1);
        assert_eq!(e.concat(&Bits::from_u64(1, 1)).to_u64(), 1);
    }

    proptest! {
        #[test]
        fn prop_add_matches_u128(a in any::<u64>(), b in any::<u64>(), w in 1usize..64) {
            let x = Bits::from_u64(a, w);
            let y = Bits::from_u64(b, w);
            let expect = (x.to_u64() as u128 + y.to_u64() as u128) % (1u128 << w);
            prop_assert_eq!(x.add_mod(&y, false, w).to_u64() as u128, expect);
            let full = x.to_u64() as u128 + y.to_u64() as u128;
            prop_assert_eq!(x.add_full(&y).to_u128(), full);
        }

        #[test]
        fn prop_sub_roundtrip(a in any::<u64>(), b in any::<u64>(), w in 1usize..64) {
            let x = Bits::from_u64(a, w);
            let y = Bits::from_u64(b, w);
            let d = x.sub_mod(&y, w);
            prop_assert_eq!(d.add_mod(&y, false, w), x.zext(w));
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u32>(), b in any::<u32>(), w in 1usize..32) {
            let x = Bits::from_u64(a as u64, w);
            let y = Bits::from_u64(b as u64, w);
            prop_assert_eq!(x.mul_full(&y).to_u128(), x.to_u64() as u128 * y.to_u64() as u128);
        }

        #[test]
        fn prop_mul_signed_matches_i128(a in any::<i32>(), b in any::<i32>(), w in 2usize..32) {
            let x = Bits::from_i64(a as i64, w);
            let y = Bits::from_i64(b as i64, w);
            let expect = x.to_i64() as i128 * y.to_i64() as i128;
            let p = x.mul_full_signed(&y);
            let got = if p.sign_bit() {
                -(p.neg_mod(2 * w).to_u128() as i128)
            } else {
                p.to_u128() as i128
            };
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_slice_concat_roundtrip(v in any::<u64>(), w in 2usize..64, cut in 1usize..63) {
            let cut = cut % w;
            if cut == 0 { return Ok(()); }
            let b = Bits::from_u64(v, w);
            let lo = b.slice(0, cut);
            let hi = b.slice(cut, w - cut);
            prop_assert_eq!(lo.concat(&hi), b);
        }

        #[test]
        fn prop_demorgan(a in any::<u64>(), b in any::<u64>(), w in 1usize..128) {
            let x = Bits::from_u64(a, w.min(64)).zext(w);
            let y = Bits::from_u64(b, w.min(64)).zext(w);
            prop_assert_eq!(x.and(&y).not(), x.not().or(&y.not()));
        }

        #[test]
        fn prop_cmp_signed_matches_i64(a in any::<i32>(), b in any::<i32>(), w in 33usize..64) {
            let x = Bits::from_i64(a as i64, w);
            let y = Bits::from_i64(b as i64, w);
            prop_assert_eq!(x.cmp_signed(&y), (a as i64).cmp(&(b as i64)));
        }

        #[test]
        fn prop_canonical_form(v in any::<u64>(), w in 1usize..64) {
            // All public constructors produce masked values: high garbage never leaks.
            let b = Bits::from_u64(v, w);
            prop_assert_eq!(b.zext(64).to_u64(), v & ((1u64 << w) - 1));
        }
    }
}
