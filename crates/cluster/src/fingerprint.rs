//! Canonical content fingerprints.
//!
//! The plan service keys its content-addressed cache by *what the planner
//! actually reads*: the cluster topology, the model/workload configuration,
//! and the realised trace distribution. Each of those is reduced to a
//! [`Fingerprint`] — a 128-bit hash with a byte-stable, platform-independent
//! definition, so the same configuration always maps to the same cache
//! entry across runs, machines, and orderings of unordered inputs.
//!
//! The hasher is a little-endian FNV-1a over a canonical byte encoding:
//!
//! * integers are folded as fixed-width little-endian bytes, tagged by
//!   width, so `1u32` and `1u64` never collide;
//! * floats are folded as their IEEE-754 bit patterns (`f64::to_bits`), so
//!   fingerprints are exact — two configs differing in the last ulp are
//!   different configs;
//! * strings and byte slices are length-prefixed;
//! * every composite value starts with a caller-chosen `label`, which acts
//!   as a domain separator between types sharing field shapes.
//!
//! This module deliberately has no dependencies: it lives in the lowest
//! crate of the workspace so `cluster`, `modeling`, `calibrate`, and the
//! plan service all share one definition instead of growing ad-hoc
//! format-string keys (the chaos re-plan memo key is re-based onto it).

use std::fmt;

/// A 128-bit canonical content hash.
///
/// Displayed and parsed as 32 lowercase hex digits. The all-zero value is
/// reserved as "absent" (e.g. a v1 saved schedule that predates
/// fingerprints) and is never produced by [`FpHasher::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The reserved "absent" fingerprint.
    pub const ABSENT: Fingerprint = Fingerprint(0);

    /// True when this is the reserved absent value.
    pub fn is_absent(self) -> bool {
        self.0 == 0
    }

    /// Renders the fingerprint as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses 32 hex digits back into a fingerprint.
    pub fn parse(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Incremental canonical hasher producing a [`Fingerprint`].
///
/// Call the typed `fold_*` methods in a fixed, documented order per type;
/// the width tags and length prefixes make the encoding prefix-free, so
/// field reordering or width changes always change the hash.
#[derive(Debug, Clone)]
pub struct FpHasher {
    state: u128,
}

impl FpHasher {
    /// Starts a hasher domain-separated by `label` (typically the type or
    /// schema name, e.g. `"cluster-topology/v1"`).
    pub fn new(label: &str) -> FpHasher {
        let mut h = FpHasher { state: FNV_OFFSET };
        h.fold_str(label);
        h
    }

    fn fold_bytes_raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn tag(&mut self, t: u8) {
        self.fold_bytes_raw(&[t]);
    }

    /// Folds a UTF-8 string (length-prefixed).
    pub fn fold_str(&mut self, s: &str) -> &mut FpHasher {
        self.tag(b'S');
        self.fold_bytes_raw(&(s.len() as u64).to_le_bytes());
        self.fold_bytes_raw(s.as_bytes());
        self
    }

    /// Folds a `u32`.
    pub fn fold_u32(&mut self, v: u32) -> &mut FpHasher {
        self.tag(b'4');
        self.fold_bytes_raw(&v.to_le_bytes());
        self
    }

    /// Folds a `u64`.
    pub fn fold_u64(&mut self, v: u64) -> &mut FpHasher {
        self.tag(b'8');
        self.fold_bytes_raw(&v.to_le_bytes());
        self
    }

    /// Folds a bool.
    pub fn fold_bool(&mut self, v: bool) -> &mut FpHasher {
        self.tag(b'b');
        self.fold_bytes_raw(&[u8::from(v)]);
        self
    }

    /// Folds an `f64` by IEEE-754 bit pattern (exact; `-0.0 != 0.0`, NaNs
    /// compare by payload).
    pub fn fold_f64(&mut self, v: f64) -> &mut FpHasher {
        self.tag(b'f');
        self.fold_bytes_raw(&v.to_bits().to_le_bytes());
        self
    }

    /// Folds a slice of `f64` with a length prefix.
    pub fn fold_f64_slice(&mut self, vs: &[f64]) -> &mut FpHasher {
        self.tag(b'F');
        self.fold_bytes_raw(&(vs.len() as u64).to_le_bytes());
        for &v in vs {
            self.fold_bytes_raw(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Folds an already-computed fingerprint (for composing hierarchies).
    pub fn fold_fp(&mut self, fp: Fingerprint) -> &mut FpHasher {
        self.tag(b'H');
        self.fold_bytes_raw(&fp.0.to_le_bytes());
        self
    }

    /// Folds a set of fingerprints *order-independently* (by sorting), for
    /// collections whose order carries no meaning.
    pub fn fold_fp_set(&mut self, fps: &[Fingerprint]) -> &mut FpHasher {
        let mut sorted: Vec<Fingerprint> = fps.to_vec();
        sorted.sort_unstable();
        self.tag(b'Z');
        self.fold_bytes_raw(&(sorted.len() as u64).to_le_bytes());
        for fp in sorted {
            self.fold_bytes_raw(&fp.0.to_le_bytes());
        }
        self
    }

    /// Finishes the hash. The reserved absent value never escapes: a zero
    /// digest is remapped to the FNV offset basis.
    pub fn finish(&self) -> Fingerprint {
        if self.state == 0 {
            Fingerprint(FNV_OFFSET)
        } else {
            Fingerprint(self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls() {
        let a = FpHasher::new("t").fold_u32(7).fold_f64(1.5).finish();
        let b = FpHasher::new("t").fold_u32(7).fold_f64(1.5).finish();
        assert_eq!(a, b);
        assert!(!a.is_absent());
    }

    #[test]
    fn width_tags_separate_types() {
        let a = FpHasher::new("t").fold_u32(1).finish();
        let b = FpHasher::new("t").fold_u64(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn labels_domain_separate() {
        let a = FpHasher::new("alpha").fold_u32(1).finish();
        let b = FpHasher::new("beta").fold_u32(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn strings_are_prefix_free() {
        let a = FpHasher::new("t").fold_str("ab").fold_str("c").finish();
        let b = FpHasher::new("t").fold_str("a").fold_str("bc").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn float_bit_patterns_are_exact() {
        let a = FpHasher::new("t").fold_f64(0.1 + 0.2).finish();
        let b = FpHasher::new("t").fold_f64(0.3).finish();
        assert_ne!(a, b, "0.1+0.2 != 0.3 in IEEE-754");
        let neg = FpHasher::new("t").fold_f64(-0.0).finish();
        let pos = FpHasher::new("t").fold_f64(0.0).finish();
        assert_ne!(neg, pos);
    }

    #[test]
    fn fp_sets_are_order_independent() {
        let x = FpHasher::new("x").finish();
        let y = FpHasher::new("y").finish();
        let a = FpHasher::new("t").fold_fp_set(&[x, y]).finish();
        let b = FpHasher::new("t").fold_fp_set(&[y, x]).finish();
        assert_eq!(a, b);
        let c = FpHasher::new("t").fold_fp(x).fold_fp(y).finish();
        let d = FpHasher::new("t").fold_fp(y).fold_fp(x).finish();
        assert_ne!(c, d, "ordered folding keeps order");
    }

    #[test]
    fn hex_roundtrip() {
        let fp = FpHasher::new("t").fold_u64(42).finish();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::parse(&hex), Some(fp));
        assert_eq!(Fingerprint::parse("xyz"), None);
        assert_eq!(format!("{fp}"), hex);
        assert!(Fingerprint::ABSENT.is_absent());
    }
}
