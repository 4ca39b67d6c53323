//! Seeded inputs: documents, views, query mixes and edit streams. The
//! program under test only ever sees what these functions generate.

use pxv_pxml::text::parse_pdocument;
use pxv_pxml::{Edit, EditEffect, Label, NodeId, PDocument, PKind};
use pxv_rewrite::View;
use pxv_tpq::parse::parse_pattern;
use pxv_tpq::TreePattern;

/// SplitMix64: a small, fast, seedable generator (the benchmark must not
/// depend on a registry crate).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`, decorrelated by `stream` so that
    /// the client threads of one run draw different sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Parses a fixture pattern (the strings below are constants).
pub fn pat(s: &str) -> TreePattern {
    parse_pattern(s).unwrap_or_else(|e| panic!("bad fixture pattern {s}: {e}"))
}

/// The paper's running example scaled to `n` persons (Figures 1–2).
pub fn personnel_doc(n: usize, seed: u64) -> PDocument {
    pxv_pxml::generators::personnel(n, 3, seed).0
}

/// `v1BON` and `v2BON` (Figure 3).
pub fn personnel_views() -> Vec<View> {
    vec![
        View::new("v1BON", pat("IT-personnel//person[name/Rick]/bonus")),
        View::new("v2BON", pat("IT-personnel//person/bonus")),
    ]
}

/// The five bonus-project variants: four answered through v2BON, one
/// (`qRBON`) through v1BON.
pub fn personnel_queries() -> Vec<TreePattern> {
    [
        "IT-personnel//person/bonus[laptop]",
        "IT-personnel//person/bonus[pda]",
        "IT-personnel//person/bonus[tablet]",
        "IT-personnel//person/bonus",
        "IT-personnel//person[name/Rick]/bonus[laptop]",
    ]
    .iter()
    .map(|s| pat(s))
    .collect()
}

/// A person without a bonus: no query of the personnel mix can select
/// anything inside it, so inserting and deleting it keeps answer supports
/// fixed.
pub fn personnel_inert() -> PDocument {
    parse_pdocument("person[name[mux(0.7: Ann, 0.3: Bob)]]").expect("constant fixture")
}

/// An extracted product catalog in the shape of the
/// `uncertain_extraction` example: per-product brand alternatives,
/// listings with uncertain ratings and possibly spurious offers.
pub fn catalog_doc(n_products: usize, seed: u64) -> PDocument {
    let mut rng = Rng::new(seed, 0xCA7A_1065);
    let mut pdoc = PDocument::new(Label::new("catalog"));
    let brands = ["acme", "globex", "initech"];
    for i in 0..n_products {
        let prod = pdoc.add_ordinary(pdoc.root(), Label::new("product"), 1.0);
        let brand = pdoc.add_ordinary(prod, Label::new("brand"), 1.0);
        let mux = pdoc.add_dist(brand, PKind::Mux, 1.0);
        let conf = rng.range(0.55, 0.95);
        pdoc.add_ordinary(mux, Label::new(brands[i % 3]), conf);
        pdoc.add_ordinary(mux, Label::new(brands[(i + 1) % 3]), 1.0 - conf);
        for _ in 0..1 + rng.below(2) {
            let listing = pdoc.add_ordinary(prod, Label::new("listing"), 1.0);
            let ind = pdoc.add_dist(listing, PKind::Ind, 1.0);
            let rating = pdoc.add_ordinary(ind, Label::new("rating"), rng.range(0.5, 0.99));
            let stars = if rng.unit() < 0.5 { "good" } else { "poor" };
            pdoc.add_ordinary(rating, Label::new(stars), 1.0);
            let omux = pdoc.add_dist(listing, PKind::Mux, 1.0);
            let offer = pdoc.add_ordinary(omux, Label::new("offer"), rng.range(0.6, 1.0));
            let price = format!("{}", 10 + rng.below(89));
            pdoc.add_ordinary(offer, Label::new(&price), 1.0);
        }
    }
    pdoc
}

/// The three catalog views: two one-aspect views and the appearance view
/// a TP∩ plan needs (Lemma 3).
pub fn catalog_views() -> Vec<View> {
    vec![
        View::new("acme", pat("catalog/product[brand/acme]/listing/offer")),
        View::new("liked", pat("catalog/product/listing[rating/good]/offer")),
        View::new("all", pat("catalog/product/listing/offer")),
    ]
}

/// The catalog mix: the TP∩ query first, then two single-view TP queries.
pub fn catalog_queries() -> Vec<TreePattern> {
    [
        "catalog/product[brand/acme]/listing[rating/good]/offer",
        "catalog/product[brand/acme]/listing/offer",
        "catalog/product/listing[rating/good]/offer",
    ]
    .iter()
    .map(|s| pat(s))
    .collect()
}

/// A product without listings: inert for every catalog query.
pub fn catalog_inert() -> PDocument {
    parse_pdocument("product[brand[mux(0.6: acme, 0.4: globex)]]").expect("constant fixture")
}

/// Picks document ranks with probability proportional to `1 / (rank+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A Zipf law over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Most inert subtrees alive at once; bounds document growth in long runs.
const MAX_INSERTED: usize = 8;

/// A seeded edit stream over one document. Edits never change the
/// support of any answer of the workload's queries:
///
/// - `SetProb` on a `mux`/`ind` edge moves a positive probability to
///   another positive one (within the `mux` mass bound);
/// - an inert subtree (matching no query) is inserted under the root, or
///   a previously inserted one is deleted.
///
/// The caller applies each edit to its mirror of the document and reports
/// the effect back through [`EditStream::applied`].
#[derive(Clone, Debug)]
pub struct EditStream {
    rng: Rng,
    inert: PDocument,
    /// Nodes under `mux`/`ind` parents in the initial document, sorted.
    reweighable: Vec<NodeId>,
    inserted: Vec<NodeId>,
}

impl EditStream {
    /// An edit stream over `doc` (the initial state), inserting `inert`.
    pub fn new(doc: &PDocument, inert: PDocument, seed: u64) -> EditStream {
        let mut reweighable: Vec<NodeId> = doc
            .node_ids()
            .filter(|&n| {
                doc.parent(n)
                    .is_some_and(|p| matches!(doc.kind(p), PKind::Mux | PKind::Ind))
            })
            .collect();
        reweighable.sort();
        EditStream {
            rng: Rng::new(seed, 0xED17),
            inert,
            reweighable,
            inserted: Vec::new(),
        }
    }

    /// The next edit against `doc`, the current state of the mirror.
    pub fn next_edit(&mut self, doc: &PDocument) -> Edit {
        // About one edit in ten inserts or deletes: those cost several times
        // a `SetProb`, and a rarer slow kind keeps `update_p25_ms` inside
        // the `SetProb` mode instead of on the edge between the two.
        let r = self.rng.unit();
        if !self.inserted.is_empty() && (r < 0.05 || self.inserted.len() >= MAX_INSERTED) {
            let victim = self
                .inserted
                .swap_remove(self.rng.below(self.inserted.len()));
            return Edit::DeleteSubtree { node: victim };
        }
        if r < 0.1 {
            return Edit::InsertSubtree {
                parent: doc.root(),
                prob: 1.0,
                subtree: self.inert.clone(),
            };
        }
        let node = self.reweighable[self.rng.below(self.reweighable.len())];
        let parent = doc.parent(node).expect("reweighable nodes have parents");
        let cap = match doc.kind(parent) {
            PKind::Mux => {
                let others: f64 = doc
                    .children(parent)
                    .iter()
                    .filter(|&&c| c != node)
                    .map(|&c| doc.child_prob(parent, c))
                    .sum();
                (1.0 - others).min(1.0)
            }
            _ => 0.99,
        };
        Edit::SetProb {
            node,
            prob: cap * self.rng.range(0.5, 1.0),
        }
    }

    /// Records the effect of the last edit on the mirror.
    pub fn applied(&mut self, effect: &EditEffect) {
        if let Some(root) = effect.inserted_root {
            self.inserted.push(root);
        }
    }
}

/// Everything one workload loads into the server, plus its read mix.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// `(name, document)` pairs, loaded in order.
    pub docs: Vec<(String, PDocument)>,
    /// Views registered after the documents.
    pub views: Vec<View>,
    /// The read mix.
    pub queries: Vec<TreePattern>,
    /// The inert subtree edit streams insert into these documents.
    pub inert: PDocument,
    /// Cache budget as a share of the unbounded warm footprint.
    pub budget_share: Option<f64>,
}
