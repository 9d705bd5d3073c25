//! Content-addressed job keys: a stable 128-bit hash over the canonical
//! form of a job.
//!
//! The key must be identical for identical *content* across processes and
//! batches, so it cannot use `std::collections`' randomly seeded hasher.
//! It is built from FNV-1a over a canonical byte string:
//!
//! ```text
//! canonical(spec) \x1f latency \x1f canonical(options)
//! ```
//!
//! where `canonical(spec)` is the specification pretty-printed from its
//! parsed form — so formatting, comments and whitespace in the original
//! source never affect the key — and `canonical(options)` is an **explicit
//! field-by-field encoding** of [`bittrans_core::CompareOptions`] (see
//! [`canonical_options`]). The options must never be keyed through their
//! `Debug` output: a rename or reorder of a struct field would then change
//! every key and silently invalidate every persisted cache entry. The
//! explicit encoding is pinned by a golden-key test
//! (`tests/keys.rs::golden_key_pins_canonical_encoding`), so any drift
//! becomes a test failure instead of a cold cache.

use bittrans_core::CompareOptions;
use bittrans_ir::Spec;
use std::fmt;

/// A stable 128-bit content hash identifying a job's full input.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub [u64; 2]);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The canonical byte encoding of a [`CompareOptions`] value used as key
/// material: every field spelled out by a stable name, floats rendered as
/// their exact IEEE-754 bit patterns so the encoding is never subject to
/// formatting drift. Appending a *new* field changes keys exactly once —
/// that is unavoidable and correct, since the new field is new content —
/// but renaming or reordering the struct's fields must not.
///
/// The exhaustive destructuring is load-bearing: when `CompareOptions`
/// grows a field, this function must stop compiling until the field is
/// keyed. Silently omitting it would make two different jobs share a key
/// and serve each other's cached results — strictly worse than the cold
/// cache this encoding exists to prevent.
pub fn canonical_options(options: &CompareOptions) -> String {
    let CompareOptions {
        adder_arch,
        timing: bittrans_timing::TimingModel { delta_ns, overhead_ns },
        balance,
        verify_vectors,
    } = *options;
    format!(
        "adder={};delta_ns={:016x};overhead_ns={:016x};balance={};verify={}",
        adder_arch.code(),
        delta_ns.to_bits(),
        overhead_ns.to_bits(),
        u8::from(balance),
        verify_vectors,
    )
}

impl JobKey {
    /// The key of `(spec, latency, options)`.
    pub fn of(spec: &Spec, latency: u32, options: &CompareOptions) -> Self {
        let canonical = format!("{spec}\x1f{latency}\x1f{}", canonical_options(options));
        Self::of_bytes(canonical.as_bytes())
    }

    /// The key of an already-canonicalized byte string.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        // Two independent FNV-1a lanes (different offset bases) give a
        // 128-bit key; collisions are out of reach for cache-sized sets.
        JobKey([FNV_OFFSET, FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15]).extended(bytes)
    }

    /// Continues both lanes over `bytes`: FNV-1a is sequential, so the key
    /// of a string's prefix extended by the rest is the key of the whole
    /// string. A grid hashes each spec's text once and extends it per cell.
    pub(crate) fn extended(self, bytes: &[u8]) -> Self {
        JobKey([fnv1a(bytes, self.0[0]), fnv1a(bytes, self.0[1])])
    }

    /// Parses the 32-hex-digit form produced by [`JobKey`]'s `Display`
    /// (used as the file stem of persisted cache entries). Returns `None`
    /// for anything else — including sign characters, which
    /// `u64::from_str_radix` would otherwise accept, and **uppercase hex
    /// digits**: `Display` only ever emits lowercase, so an
    /// uppercase-stemmed cache file would be accepted into the index under
    /// a key whose canonical filename it can never match, leaving a
    /// phantom entry that fails every lookup.
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 32 || !text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        let hi = u64::from_str_radix(&text[..16], 16).ok()?;
        let lo = u64::from_str_radix(&text[16..], 16).ok()?;
        Some(JobKey([lo, hi]))
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[1], self.0[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        let a = JobKey::of_bytes(b"hello");
        let b = JobKey::of_bytes(b"hello");
        assert_eq!(a, b);
        assert_ne!(a, JobKey::of_bytes(b"hellp"));
    }

    #[test]
    fn lanes_are_independent() {
        let k = JobKey::of_bytes(b"x");
        assert_ne!(k.0[0], k.0[1]);
    }

    #[test]
    fn displays_as_32_hex_chars() {
        assert_eq!(JobKey::of_bytes(b"abc").to_string().len(), 32);
    }

    #[test]
    fn hex_roundtrips() {
        let key = JobKey::of_bytes(b"roundtrip");
        assert_eq!(JobKey::from_hex(&key.to_string()), Some(key));
        assert_eq!(JobKey::from_hex("short"), None);
        assert_eq!(JobKey::from_hex("zz".repeat(16).as_str()), None);
        assert_eq!(JobKey::from_hex(&"0".repeat(33)), None);
        // Sign characters are not canonical hex even though from_str_radix
        // would take them.
        assert_eq!(JobKey::from_hex(&format!("+{}", "0".repeat(31))), None);
        assert_eq!(JobKey::from_hex(&format!("{}+{}", "0".repeat(16), "0".repeat(15))), None);
    }

    #[test]
    fn uppercase_hex_is_rejected() {
        // Display emits lowercase only; accepting uppercase would index a
        // file under a key whose canonical filename never matches it.
        let key = JobKey::of_bytes(b"case");
        let lower = key.to_string();
        let upper = lower.to_uppercase();
        assert_ne!(lower, upper, "hash with no letters — pick another probe");
        assert_eq!(JobKey::from_hex(&lower), Some(key));
        assert_eq!(JobKey::from_hex(&upper), None);
        // Mixed case is equally non-canonical.
        let mixed = format!("A{}", &lower[1..]);
        assert_eq!(JobKey::from_hex(&mixed), None);
    }

    #[test]
    fn canonical_options_encoding_is_explicit() {
        // The key material names every field: no Debug formatting, no
        // dependence on struct field order.
        let options = CompareOptions::default();
        let encoded = canonical_options(&options);
        assert_eq!(
            encoded,
            format!(
                "adder=rca;delta_ns={:016x};overhead_ns={:016x};balance=1;verify=50",
                0.585f64.to_bits(),
                0.04f64.to_bits()
            )
        );
        // Every field moves the encoding.
        let flip = CompareOptions { balance: false, ..options };
        assert_ne!(canonical_options(&flip), encoded);
        let vectors = CompareOptions { verify_vectors: 0, ..options };
        assert_ne!(canonical_options(&vectors), encoded);
    }

    #[test]
    fn spec_keys_are_canonical() {
        let a = Spec::parse("spec k { input a: u4;   output o = a; }").unwrap();
        let b = Spec::parse("spec k {\ninput a: u4;\noutput o = a;\n}").unwrap();
        let options = CompareOptions::default();
        assert_eq!(JobKey::of(&a, 2, &options), JobKey::of(&b, 2, &options));
        assert_ne!(JobKey::of(&a, 2, &options), JobKey::of(&a, 3, &options));
    }
}
