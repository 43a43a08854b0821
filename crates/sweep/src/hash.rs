//! Stable content hashing for scenario descriptors.
//!
//! The cache key is FNV-1a (64-bit) over the canonical compact JSON of the
//! scenario kind plus a schema-version prefix, so cache entries survive
//! process restarts and invalidate wholesale when the payload schema
//! changes.

/// Bump when the shape of cached payloads changes incompatibly.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The cache key for a canonical scenario serialization: 16 hex digits.
///
/// The key mixes in this crate's version *and the evaluator crate's
/// version* ([`yoco::VERSION`]) alongside the schema version, so
/// releases of either side invalidate wholesale. Within one version,
/// edits to model code do NOT invalidate entries — that is what makes
/// "re-run `fig8` after touching only `fig10`" a cache hit — so after
/// changing model constants during development, recompute with
/// `sweep run --force`. Entries orphaned by a version rotation are
/// reclaimed by `sweep cache gc`.
pub fn content_key(canonical_json: &str) -> String {
    let tagged = format!(
        "v{CACHE_SCHEMA_VERSION}:{}:e{}:{canonical_json}",
        env!("CARGO_PKG_VERSION"),
        yoco::VERSION
    );
    format!("{:016x}", fnv1a64(tagged.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let a = content_key("{\"x\":1}");
        assert_eq!(a, content_key("{\"x\":1}"));
        assert_ne!(a, content_key("{\"x\":2}"));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn fnv_reference_vector() {
        // Standard FNV-1a test vector: empty input hashes to the offset
        // basis, "a" to 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
