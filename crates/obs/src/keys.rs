//! Canonical wire-key names for `PROFILE` responses.
//!
//! [`crate::QueryProfile::wire_pairs`] writes the `PROFILE` line and the
//! server's protocol module parses it; these constants are the one
//! spelling both use, and [`PROFILE_KEYS`] fixes the emission order.
//! (The `STATS` keys are declared with their values in the server's
//! `stats` table.)

/// Time spent parsing the wire request (µs).
pub const PROFILE_PARSE_US: &str = "parse_us";
/// Time spent planning (µs).
pub const PROFILE_PLAN_US: &str = "plan_us";
/// Time spent probing the extension cache (µs).
pub const PROFILE_PROBE_US: &str = "probe_us";
/// Time spent materializing missing extensions (µs).
pub const PROFILE_MAT_US: &str = "mat_us";
/// Time spent evaluating (µs).
pub const PROFILE_EVAL_US: &str = "eval_us";
/// Time spent serializing the answer (µs).
pub const PROFILE_SER_US: &str = "ser_us";
/// End-to-end wall time (µs).
pub const PROFILE_TOTAL_US: &str = "total_us";
/// Extension-cache resident bytes when the query finished.
pub const PROFILE_CACHE_BYTES: &str = "cache_bytes";
/// Catalog epoch the query observed.
pub const PROFILE_EPOCH: &str = "epoch";

/// Every `PROFILE` key, in the exact order the server emits them.
pub const PROFILE_KEYS: [&str; 9] = [
    PROFILE_PARSE_US,
    PROFILE_PLAN_US,
    PROFILE_PROBE_US,
    PROFILE_MAT_US,
    PROFILE_EVAL_US,
    PROFILE_SER_US,
    PROFILE_TOTAL_US,
    PROFILE_CACHE_BYTES,
    PROFILE_EPOCH,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_list_has_no_duplicates() {
        assert_eq!(
            PROFILE_KEYS.iter().collect::<HashSet<_>>().len(),
            PROFILE_KEYS.len()
        );
    }

    #[test]
    fn keys_are_wire_safe() {
        for k in PROFILE_KEYS {
            assert!(
                k.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "key `{k}` must be lowercase identifier-safe"
            );
        }
    }
}
