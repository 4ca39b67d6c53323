//! The in-process oracle: a fresh, unbounded `Engine` over the client's
//! copy of the documents. Wire answers must match it bit for bit.

use pxv_engine::{DocId, Engine};
use pxv_pxml::{NodeId, PDocument};
use pxv_rewrite::View;
use pxv_tpq::TreePattern;
use std::collections::HashMap;

/// `(node, probability)` pairs, sorted by node id.
pub type Nodes = Vec<(NodeId, f64)>;

/// Lazily answers `(document, query)` pairs and memoizes the answers.
pub struct Oracle {
    engine: Engine,
    ids: Vec<DocId>,
    queries: Vec<TreePattern>,
    memo: HashMap<(usize, usize), Nodes>,
}

impl Oracle {
    /// A fresh engine over `docs` with `views` registered.
    pub fn new(docs: &[(String, PDocument)], views: &[View], queries: &[TreePattern]) -> Oracle {
        let mut engine = Engine::new();
        let ids = docs
            .iter()
            .map(|(name, doc)| {
                engine
                    .add_document(name, doc.clone())
                    .expect("generated documents are valid")
            })
            .collect();
        engine
            .register_views(views.iter().cloned())
            .expect("fixture view names are unique");
        Oracle {
            engine,
            ids,
            queries: queries.to_vec(),
            memo: HashMap::new(),
        }
    }

    /// The answer to query `q` over document `d`.
    pub fn answer(&mut self, d: usize, q: usize) -> &Nodes {
        let (engine, ids, queries) = (&self.engine, &self.ids, &self.queries);
        self.memo.entry((d, q)).or_insert_with(|| {
            engine
                .answer(ids[d], &queries[q])
                .expect("every fixture query has a plan")
                .nodes
        })
    }

    /// Every answer, indexed `[document][query]`.
    pub fn table(&mut self) -> Vec<Vec<Nodes>> {
        (0..self.ids.len())
            .map(|d| {
                (0..self.queries.len())
                    .map(|q| self.answer(d, q).clone())
                    .collect()
            })
            .collect()
    }
}

/// Whether two answers are bit-identical (same nodes, same `f64` bits).
pub fn identical(got: &Nodes, want: &Nodes) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// Whether `got` selects exactly the nodes of `want`, each with a
/// probability in `(0, 1]` — the check for answers read while edits that
/// keep supports fixed are being applied.
pub fn same_support(got: &Nodes, want: &Nodes) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1 > 0.0 && a.1 <= 1.0 + 1e-9)
}
