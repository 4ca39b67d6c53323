//! Shared fixtures for the experiment harness: the paper's Figure 3
//! queries and views.

#![warn(missing_docs)]

use pxv_rewrite::View;
use pxv_tpq::parse::parse_pattern;
use pxv_tpq::pattern::TreePattern;

/// Parses a pattern, panicking on error (fixtures only).
pub fn pat(s: &str) -> TreePattern {
    parse_pattern(s).unwrap_or_else(|e| panic!("bad fixture pattern {s}: {e}"))
}

/// `qRBON` (Figure 3).
pub fn qrbon() -> TreePattern {
    pat("IT-personnel//person[name/Rick]/bonus[laptop]")
}

/// `qBON` (Figure 3).
pub fn qbon() -> TreePattern {
    pat("IT-personnel//person/bonus[laptop]")
}

/// `v1BON` (Figure 3).
pub fn v1bon() -> View {
    View::new("v1BON", pat("IT-personnel//person[name/Rick]/bonus"))
}

/// `v2BON` (Figure 3).
pub fn v2bon() -> View {
    View::new("v2BON", pat("IT-personnel//person/bonus"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(qrbon().mb_len(), 3);
        assert_eq!(qbon().mb_len(), 3);
        assert_eq!(v1bon().pattern.mb_len(), 3);
        assert_eq!(v2bon().pattern.mb_len(), 3);
    }
}
