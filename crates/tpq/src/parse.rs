//! Parser for the XPath-ish tree-pattern notation of the paper
//! (`xpath(q)`, §2).
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! pattern   := step (sep step)*
//! sep       := '//' | '/'
//! step      := label predicate*
//! predicate := '[' rel ']'
//! rel       := '.'? sep? step (sep step)*     // './/x' ≡ '//x' (descendant)
//! label     := [A-Za-z0-9_.-]+ | '…'-quoted
//! ```
//!
//! The output node is the last main-branch step. Examples from the paper:
//! `IT-personnel//person[name/Rick]/bonus[laptop]` (qRBON),
//! `a[.//c]/b` (Example 11's view).

use crate::pattern::{Axis, QNodeId, TreePattern, MAX_PATTERN_NODES};
use pxv_pxml::Symbol as Label;
use std::fmt;

/// Error raised by [`parse_pattern`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// Message.
    pub msg: String,
    /// What went wrong.
    pub kind: PatternErrorKind,
}

/// The class of a [`PatternParseError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternErrorKind {
    /// The input is not a pattern.
    Syntax,
    /// The pattern has more than [`MAX_PATTERN_NODES`] nodes.
    TooManyNodes,
}

impl fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for PatternParseError {}

impl PatternParseError {
    /// 1-based `(line, column)` of the error within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        pxv_pxml::text::line_col_at(src, self.at)
    }

    /// Renders the error as `origin:line:col: msg` with the offending
    /// line and a caret (shared renderer with the p-document parser).
    pub fn render(&self, origin: &str, src: &str) -> String {
        pxv_pxml::text::render_at(origin, src, self.at, &self.msg)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, PatternParseError> {
        Err(PatternParseError {
            at: self.pos,
            msg: msg.into(),
            kind: PatternErrorKind::Syntax,
        })
    }

    /// Adds a node below `parent`, refusing the one past
    /// [`MAX_PATTERN_NODES`] (reported at the end of its label).
    fn add(
        &self,
        q: &mut TreePattern,
        parent: QNodeId,
        axis: Axis,
        label: Label,
    ) -> Result<QNodeId, PatternParseError> {
        if q.len() >= MAX_PATTERN_NODES {
            return Err(PatternParseError {
                at: self.pos,
                msg: format!("pattern has more than {MAX_PATTERN_NODES} nodes"),
                kind: PatternErrorKind::TooManyNodes,
            });
        }
        Ok(q.add_child(parent, axis, label))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, ch: u8) -> bool {
        if self.peek() == Some(ch) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes `/` or `//`; returns the axis, or `None` if neither.
    fn axis(&mut self) -> Option<Axis> {
        if self.eat(b'/') {
            if self.eat(b'/') {
                Some(Axis::Descendant)
            } else {
                Some(Axis::Child)
            }
        } else {
            None
        }
    }

    fn label(&mut self) -> Result<Label, PatternParseError> {
        self.skip_ws();
        if self.eat(b'\'') {
            let start = self.pos;
            while self.pos < self.src.len() && self.src[self.pos] != b'\'' {
                self.pos += 1;
            }
            if self.pos >= self.src.len() {
                return self.err("unterminated quoted label");
            }
            let s =
                std::str::from_utf8(&self.src[start..self.pos]).map_err(|_| PatternParseError {
                    at: start,
                    msg: "invalid utf-8".into(),
                    kind: PatternErrorKind::Syntax,
                })?;
            self.pos += 1;
            return Ok(Label::new(s));
        }
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric()
                || matches!(self.src[self.pos], b'_' | b'-' | b'.'))
        {
            // '.' only inside labels if not the './/' form — handled by caller
            // consuming '.' before calling label(); here '.' is allowed for
            // labels like '3.14'.
            if self.src[self.pos] == b'.' && self.src.get(self.pos + 1).copied() == Some(b'/') {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected label");
        }
        Ok(Label::new(
            std::str::from_utf8(&self.src[start..self.pos]).expect("ascii label"),
        ))
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }
}

/// Parses a tree pattern from XPath-ish notation.
pub fn parse_pattern(input: &str) -> Result<TreePattern, PatternParseError> {
    let mut c = Cursor {
        src: input.as_bytes(),
        pos: 0,
    };
    let root_label = c.label()?;
    let mut q = TreePattern::leaf(root_label);
    let root = q.root();
    parse_step_tail(&mut c, &mut q, root)?;
    let mut cur = root;
    loop {
        match c.axis() {
            None => break,
            Some(axis) => {
                let label = c.label()?;
                cur = c.add(&mut q, cur, axis, label)?;
                parse_step_tail(&mut c, &mut q, cur)?;
            }
        }
    }
    q.set_output(cur);
    if !c.at_end() {
        return c.err("trailing input after pattern");
    }
    Ok(q)
}

/// Parses the predicates (`[...]*`) attached to the step at `node`.
fn parse_step_tail(
    c: &mut Cursor<'_>,
    q: &mut TreePattern,
    node: QNodeId,
) -> Result<(), PatternParseError> {
    while c.eat(b'[') {
        // Optional leading '.' (as in [.//x]); optional separator.
        let _ = c.eat(b'.');
        let first_axis = c.axis().unwrap_or(Axis::Child);
        let label = c.label()?;
        let mut cur = c.add(q, node, first_axis, label)?;
        parse_step_tail(c, q, cur)?;
        // Continuation path inside the predicate: [name/Rick], [x//y[z]].
        while let Some(axis) = c.axis() {
            let label = c.label()?;
            cur = c.add(q, cur, axis, label)?;
            parse_step_tail(c, q, cur)?;
        }
        if !c.eat(b']') {
            return c.err("expected ']'");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_queries() {
        // Figure 3.
        let qrbon = parse_pattern("IT-personnel//person[name/Rick]/bonus[laptop]").unwrap();
        assert_eq!(qrbon.mb_len(), 3);
        assert_eq!(qrbon.len(), 6);
        assert_eq!(qrbon.output_label().name(), "bonus");

        let v2 = parse_pattern("IT-personnel//person/bonus").unwrap();
        assert_eq!(v2.len(), 3);
        assert_eq!(v2.mb_len(), 3);
    }

    #[test]
    fn descendant_edges() {
        let q = parse_pattern("a//b/c").unwrap();
        let mb = q.main_branch();
        assert_eq!(q.axis(mb[1]), Axis::Descendant);
        assert_eq!(q.axis(mb[2]), Axis::Child);
    }

    #[test]
    fn descendant_predicates() {
        for s in ["a[.//c]/b", "a[//c]/b"] {
            let q = parse_pattern(s).unwrap();
            let root_preds = q.predicate_children(q.root());
            assert_eq!(root_preds.len(), 1, "in {s}");
            assert_eq!(q.axis(root_preds[0]), Axis::Descendant, "in {s}");
        }
    }

    #[test]
    fn nested_predicates() {
        let q = parse_pattern("a[b[c][.//d]/e]/f").unwrap();
        assert_eq!(q.len(), 6);
        let b = q.predicate_children(q.root())[0];
        assert_eq!(q.label(b).name(), "b");
        assert_eq!(q.children(b).len(), 3); // c, d, e
    }

    #[test]
    fn numeric_and_dashed_labels() {
        let q = parse_pattern("bonus[44]/50").unwrap();
        assert_eq!(q.output_label().name(), "50");
        let q2 = parse_pattern("IT-personnel/x_1").unwrap();
        assert_eq!(q2.output_label().name(), "x_1");
    }

    #[test]
    fn errors() {
        assert!(parse_pattern("").is_err());
        assert!(parse_pattern("a[").is_err());
        assert!(parse_pattern("a]b").is_err());
        assert!(parse_pattern("a/[b]").is_err());
        assert!(parse_pattern("a//").is_err());
    }

    /// `a` plus `n − 1` predicates `[b]`: an `n`-node pattern.
    fn wide(n: usize) -> String {
        format!("a{}", "[b]".repeat(n - 1))
    }

    #[test]
    fn patterns_wider_than_the_state_are_refused() {
        assert_eq!(parse_pattern(&wide(MAX_PATTERN_NODES)).unwrap().len(), 63);
        for n in [64, 70] {
            let err = parse_pattern(&wide(n)).expect_err("too wide");
            assert_eq!(err.kind, PatternErrorKind::TooManyNodes, "{n}");
            assert!(err.msg.contains("63"), "{}", err.msg);
        }
        // Along the main branch too.
        let long = format!("a{}", "/b".repeat(63));
        assert_eq!(
            parse_pattern(&long).unwrap_err().kind,
            PatternErrorKind::TooManyNodes
        );
        assert_eq!(
            parse_pattern("a[").unwrap_err().kind,
            PatternErrorKind::Syntax
        );
    }

    #[test]
    fn quoted_labels() {
        let q = parse_pattern("'IT personnel'//'my node'").unwrap();
        assert_eq!(q.label(q.root()).name(), "IT personnel");
        assert_eq!(q.output_label().name(), "my node");
    }

    #[test]
    fn errors_render_with_line_col_and_caret() {
        let src = "a/b[c";
        let err = parse_pattern(src).expect_err("unclosed predicate");
        assert_eq!(err.line_col(src), (1, 6));
        let rendered = err.render("query", src);
        assert!(rendered.starts_with("query:1:6:"), "{rendered}");
        assert!(rendered.contains("a/b[c"), "{rendered}");
        assert!(rendered.ends_with('^'), "{rendered}");
    }
}
