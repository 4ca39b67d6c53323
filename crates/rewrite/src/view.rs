//! Views and their (probabilistic) extensions (§3, §3.1).
//!
//! A view is a named TP query. Its probabilistic extension `P̂_v` bundles
//! the view's results: a `doc(v)`-labeled root, one `ind` child, and below
//! it one subtree `P̂_n` per result `(n, p) ∈ v(P̂)` with edge probability
//! `p`. Every ordinary node of a result subtree carries an extra child
//! labeled `Id(n)` exposing the original node identity (the paper's
//! post-processing step) — the same original node may occur in several
//! result subtrees, so extension nodes get fresh ids and `Id(·)` markers
//! carry identity.
//!
//! The `ind` node conveys *no* independence assumption (§3.1): all
//! probability functions in this crate only ever combine (i) the per-result
//! edge probabilities and (ii) probabilities computed *within a single
//! result subtree*, exactly as the paper's `fr` constructions do.

use pxv_peval::dp::{Conjunction, Kernel, SharedKernel};
use pxv_pxml::forest::{Forest, Shape};
use pxv_pxml::{Edit, EditEffect, Label, NodeId, PDocument, PKind};
use pxv_tpq::embed::Embedder;
use pxv_tpq::pattern::TreePattern;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

/// A named view.
#[derive(Clone, Debug)]
pub struct View {
    /// View name (`v ∈ V`, disjoint from the label alphabet).
    pub name: String,
    /// The TP query defining the view.
    pub pattern: TreePattern,
    /// `doc(v)`, interned once at construction — plan building and
    /// extension matching compare the cached symbol instead of formatting
    /// and re-interning per call.
    doc_label: Label,
}

impl View {
    /// Creates a view.
    pub fn new(name: impl Into<String>, pattern: TreePattern) -> View {
        let name = name.into();
        let doc_label = Label::new(&format!("doc({name})"));
        View {
            name,
            pattern,
            doc_label,
        }
    }

    /// The `doc(v)` label of this view's extensions.
    pub fn doc_label(&self) -> Label {
        self.doc_label
    }
}

/// The `Id(n)` marker label for original node `n`.
pub fn id_label(n: NodeId) -> Label {
    Label::new(&format!("Id({})", n.0))
}

/// Parses an `Id(n)` label back to the original node id.
pub fn parse_id_label(l: Label) -> Option<NodeId> {
    let s = l.name();
    let inner = s.strip_prefix("Id(")?.strip_suffix(')')?;
    inner.parse::<u32>().ok().map(NodeId)
}

/// One view result bundled in an extension.
#[derive(Clone, Copy, Debug)]
pub struct ViewResult {
    /// Root of the result subtree inside the extension (fresh id).
    pub ext_root: NodeId,
    /// The original p-document node this result selects.
    pub orig: NodeId,
    /// `Pr(orig ∈ v(P))` — the probability attached to the `ind` edge.
    pub prob: f64,
}

/// The probabilistic view extension `P̂_v` (§3.1).
///
/// ```
/// use pxv_pxml::edit::Edit;
/// use pxv_pxml::text::parse_pdocument;
/// use pxv_pxml::NodeId;
/// use pxv_rewrite::view::{ProbExtension, View};
/// use pxv_tpq::parse::parse_pattern;
///
/// let doc = parse_pdocument("a#0[mux#1(0.4: b#2[c#3], 0.5: b#4)]").unwrap();
/// let view = View::new("bs", parse_pattern("a/b").unwrap());
/// let ext = ProbExtension::materialize(&doc, &view);
/// assert_eq!(ext.results.len(), 2); // both b's, with their match probabilities
/// assert!((ext.results[0].prob - 0.4).abs() < 1e-12);
///
/// // Extensions are maintained *incrementally* across document edits:
/// // the delta result is identical to rematerializing from scratch.
/// let mut after = doc.clone();
/// let edit = Edit::SetProb { node: NodeId(2), prob: 0.25 };
/// let effect = after.apply_edit(&edit).unwrap();
/// let (maintained, outcome) = ext.apply_delta(&after, &edit, &effect);
/// assert!(outcome.is_incremental());
/// assert!((maintained.results[0].prob - 0.25).abs() < 1e-12);
/// let cold = ProbExtension::materialize(&after, &view);
/// assert_eq!(maintained.pdoc.to_string(), cold.pdoc.to_string());
/// ```
#[derive(Clone, Debug)]
pub struct ProbExtension {
    /// The view this extension materializes.
    pub view: View,
    /// The extension as a p-document (`doc(v)` root, `ind` child, result
    /// subtrees with `Id(·)` markers).
    pub pdoc: PDocument,
    /// The bundled results, sorted by original node id.
    pub results: Vec<ViewResult>,
    /// Original id of every ordinary extension node (markers excluded).
    orig_of: HashMap<NodeId, NodeId>,
    /// Reverse index: original node → its occurrences as `(result index,
    /// extension node)` pairs. Derived from `orig_of` at assembly time
    /// (never serialized); it turns the per-answer ancestor lookup of the
    /// `fr` probability functions from a full-extension scan into a map
    /// hit, which is what keeps warm query latency linear in the answer's
    /// neighborhood rather than quadratic in the extension.
    by_orig: HashMap<NodeId, Vec<(usize, NodeId)>>,
    /// Per-result `Pr(n_i ∈ v_(k)(P̂^{n_i}_v))`, filled on first use by
    /// [`ProbExtension::denominators`]. Never serialized; every
    /// constructor starts it empty, so an edited or restored extension
    /// cannot inherit stale values.
    denominators: OnceLock<Vec<f64>>,
    /// Every result subtree in preorder columns, one tree per result:
    /// its distributional nodes and its ordinary nodes minus the `Id(·)`
    /// markers, ordinary slots holding original ids — the one layout that
    /// [`ProbExtension::candidates`] embeds on and every `fr` DP runs on.
    /// Filled on first use, never serialized, started empty by every
    /// constructor like `denominators`.
    forest: OnceLock<Forest>,
    /// What `forest` holds, counted when the extension is assembled, so
    /// its charge is known before it is filled.
    forest_shape: Shape,
    /// DP scratch lent to the `fr` evaluations over this extension (see
    /// `crate::fr_tp`). Not data: never serialized, never charged.
    pub(crate) kernel: SharedKernel,
}

impl ProbExtension {
    /// Materializes `P̂_v` from the original p-document. This is the *only*
    /// function that touches `P̂`; everything downstream (probability
    /// functions, plan evaluation) uses the extension alone.
    ///
    /// Candidates come from the maximal world; each candidate's match
    /// probability is evaluated over its pruned *scope* (root path plus
    /// the subtree of its anchor ancestor — an exact marginalization,
    /// see `pxv_peval::prune_to_anchor`). Evaluating
    /// per-scope rather than per-document is what makes the incremental
    /// path ([`ProbExtension::apply_delta`]) bit-identical to cold
    /// materialization: both run the same function on the same pruned
    /// input whenever an edit leaves a candidate's scope untouched.
    pub fn materialize(pdoc: &PDocument, view: &View) -> ProbExtension {
        let mut span = pxv_obs::Span::enter("materialize");
        let answers = scoped_answers(pdoc, &view.pattern, |_| None);
        let ext = build_extension(pdoc, view, &answers);
        span.record("results", ext.results.len() as u64);
        span.record("heap_bytes", ext.heap_bytes() as u64);
        ext
    }

    /// Incrementally maintains this extension across one document edit:
    /// `after` is the post-edit document and `effect` the application
    /// report. Match probabilities are recomputed **only** for candidates
    /// whose scope (root path + anchor subtree, the region every witness
    /// of their matches lives in) intersects the edited region; all other
    /// results reuse their stored probability, which is bit-identical to
    /// what recomputation would produce because the scope is unchanged.
    ///
    /// Returns the maintained extension — guaranteed equal, field for
    /// field (fresh extension ids included), to
    /// `ProbExtension::materialize(after, &self.view)` — plus the
    /// [`DeltaOutcome`] describing which path ran. Falls back to full
    /// rematerialization when the view cannot localize at all (a
    /// predicate on the pattern root scopes every candidate to the whole
    /// document).
    pub fn apply_delta(
        &self,
        after: &PDocument,
        edit: &Edit,
        effect: &EditEffect,
    ) -> (ProbExtension, DeltaOutcome) {
        let q = &self.view.pattern;
        if q.first_predicate_depth() == 0 && q.mb_len() > 1 {
            // Witnesses of a root predicate can live anywhere: no edit
            // localizes, short of the trivial single-node pattern.
            return (
                ProbExtension::materialize(after, &self.view),
                DeltaOutcome::Rematerialized,
            );
        }
        // Structural fast path: a reweigh between two *positive*
        // probabilities cannot change any answer's support (TP matching
        // is monotone: a matching world with the edge's choice flipped to
        // a positive alternative still matches and still has positive
        // measure), so the candidate set, the result list, and every
        // subtree shape are unchanged — the extension is patched in
        // place instead of rebuilt.
        if let Edit::SetProb { node, prob } = edit {
            // Ordinary-node edges only: the marker map that locates the
            // stored copies to patch does not track distributional nodes
            // (those go through the general rebuild below).
            if *prob > 0.0
                && effect.previous_prob.is_some_and(|p| p > 0.0)
                && after.label(*node).is_some()
            {
                return self.reweigh_delta(after, *node, *prob);
            }
        }
        let old: HashMap<NodeId, f64> = self.results.iter().map(|r| (r.orig, r.prob)).collect();
        let mut reused = 0usize;
        let mut recomputed = 0usize;
        let answers = scoped_answers(after, q, |scope| {
            if scope_affected(after, scope, edit, effect) {
                recomputed += 1;
                None
            } else {
                // An untouched scope cannot create a match out of nothing:
                // a candidate absent from the old results stays a
                // zero-probability candidate.
                match old.get(&scope.candidate) {
                    Some(&p) => {
                        reused += 1;
                        Some(p)
                    }
                    None => Some(0.0),
                }
            }
        });
        let ext = build_extension(after, &self.view, &answers);
        // Recomputation through pruned scopes is still the incremental
        // path (scope evaluation beats whole-document evaluation even
        // when every candidate is touched); `Rematerialized` is reserved
        // for views that cannot localize at all.
        (ext, DeltaOutcome::Incremental { reused, recomputed })
    }

    /// The [`ProbExtension::apply_delta`] fast path for a positive→
    /// positive [`Edit::SetProb`] on `node`: patches the stored copies of
    /// the reweighed edge and re-evaluates only the affected results'
    /// match probabilities, leaving container structure, ids, and marker
    /// maps untouched. Produces exactly what cold materialization over
    /// `after` would (the support-preservation argument is on the
    /// caller).
    fn reweigh_delta(
        &self,
        after: &PDocument,
        node: NodeId,
        prob: f64,
    ) -> (ProbExtension, DeltaOutcome) {
        let q = &self.view.pattern;
        let j = q.first_predicate_depth();
        let mut pdoc = self.pdoc.clone();
        let mut results = self.results.clone();
        // Patch every copied occurrence of the reweighed edge (the
        // extension copy of `node` hangs under the copy of its mux/ind
        // parent with the same survival probability).
        if let Some(occs) = self.by_orig.get(&node) {
            for &(_, ext_node) in occs {
                pdoc.set_child_prob(ext_node, prob);
            }
        }
        let mut reused = 0usize;
        let mut recomputed = 0usize;
        for r in results.iter_mut() {
            let anchor = anchor_of(after, r.orig, j);
            let affected =
                after.is_ancestor_or_self(node, r.orig) || after.is_ancestor_or_self(anchor, node);
            if affected {
                recomputed += 1;
                r.prob = pxv_peval::eval_tp_at_anchored(after, q, r.orig, anchor);
                // The result's bundle edge (under the `ind` node) carries
                // the match probability.
                pdoc.set_child_prob(r.ext_root, r.prob);
            } else {
                reused += 1;
            }
        }
        (
            ProbExtension {
                view: self.view.clone(),
                pdoc,
                results,
                orig_of: self.orig_of.clone(),
                by_orig: self.by_orig.clone(),
                denominators: OnceLock::new(),
                forest: OnceLock::new(),
                forest_shape: self.forest_shape,
                kernel: SharedKernel::default(),
            },
            DeltaOutcome::Incremental { reused, recomputed },
        )
    }

    /// Assembles the extension from its finished parts, deriving the
    /// reverse occurrence index (each original node occurs at most once
    /// per result subtree — the copy duplicates an original subtree once
    /// per containing result) and the forest's shape.
    fn assemble(
        view: View,
        pdoc: PDocument,
        results: Vec<ViewResult>,
        orig_of: HashMap<NodeId, NodeId>,
    ) -> ProbExtension {
        let mut by_orig: HashMap<NodeId, Vec<(usize, NodeId)>> =
            HashMap::with_capacity(orig_of.len());
        let mut forest_shape = Shape::default();
        for (i, r) in results.iter().enumerate() {
            forest_shape.trees += 1;
            let mut stack = vec![r.ext_root];
            while let Some(n) = stack.pop() {
                let kids = pdoc.children(n);
                let orig = orig_of.get(&n);
                if let Some(&orig) = orig {
                    by_orig.entry(orig).or_default().push((i, n));
                }
                // `forest` keeps the ordinary nodes with an original id.
                forest_shape.add_node(pdoc.kind(n), orig.is_some(), kids.len());
                stack.extend_from_slice(kids);
            }
        }
        ProbExtension {
            view,
            pdoc,
            results,
            orig_of,
            by_orig,
            denominators: OnceLock::new(),
            forest: OnceLock::new(),
            forest_shape,
            kernel: SharedKernel::default(),
        }
    }

    /// Indices of results whose subtree contains (an occurrence of)
    /// original node `orig` — i.e. results selecting an ancestor-or-self of
    /// `orig`, shallowest first.
    pub fn results_containing(&self, orig: NodeId) -> Vec<usize> {
        let Some(occs) = self.by_orig.get(&orig) else {
            return Vec::new();
        };
        let mut hits: Vec<usize> = occs.iter().map(|&(i, _)| i).collect();
        hits.sort_unstable();
        hits.dedup();
        // Shallowest ancestor = the one whose subtree contains the others'
        // roots; sort by decreasing occurrence depth (deeper occurrence ⇒
        // higher result root).
        hits.sort_by_key(|&i| {
            let occ = self.occurrences_in_result(i, orig)[0];
            std::cmp::Reverse(self.depth_in_result(i, occ))
        });
        hits
    }

    /// Extension nodes inside result `i` whose original id is `orig`.
    pub fn occurrences_in_result(&self, i: usize, orig: NodeId) -> Vec<NodeId> {
        self.by_orig
            .get(&orig)
            .map(|occs| {
                occs.iter()
                    .filter(|&&(j, _)| j == i)
                    .map(|&(_, n)| n)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Original id of an extension node.
    pub fn original_of(&self, ext_node: NodeId) -> Option<NodeId> {
        self.orig_of.get(&ext_node).copied()
    }

    /// Deterministic estimate of this extension's heap footprint in
    /// bytes: the extension p-document, the result list, the denominator
    /// and forest memos, and both original-id indexes. Like
    /// `PDocument::heap_bytes` it counts logical lengths rather than
    /// allocator capacities, so a restored (bit-identical) extension
    /// reports exactly the bytes the original did — the figure a
    /// byte-budgeted cache charges the slot for. The memos are charged in
    /// full whether or not a query has filled them yet, so answering never
    /// changes the figure.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<ProbExtension>() + self.pdoc.heap_bytes();
        bytes += self.results.len() * (size_of::<ViewResult>() + size_of::<f64>());
        bytes += self.orig_of.len() * (2 * size_of::<NodeId>() + 1);
        bytes += self.forest_shape.bytes();
        for occurrences in self.by_orig.values() {
            bytes += size_of::<NodeId>() + 1 + occurrences.len() * size_of::<(usize, NodeId)>();
        }
        bytes += self.view.name.len() + self.view.pattern.len() * 16;
        bytes
    }

    /// The result subtree `P̂^{n_i}_v` as a standalone p-document
    /// (markers included). This *copies* the subtree; query evaluation
    /// never calls it — the `fr` functions run their DPs on tree `i` of
    /// [`ProbExtension::forest`].
    pub fn result_subtree(&self, i: usize) -> PDocument {
        self.pdoc.subtree(self.results[i].ext_root)
    }

    /// Per-result `Pr(n_i ∈ v_(k)(P̂^{n_i}_v))` — the probability that the
    /// view's output node with its predicates (`lm[Qm]`) matches at the
    /// result root, inside the result subtree. It depends on the view and
    /// the result alone, never on a query, so it is computed once per
    /// extension on first use and shared by every later `fr` call (it is
    /// the denominator of Theorem 1's division formula). Nothing edits an
    /// extension in place — edits build a new one through
    /// [`ProbExtension::apply_delta`] — so the memo cannot go stale.
    pub fn denominators(&self) -> &[f64] {
        self.denominators.get_or_init(|| {
            let v = &self.view.pattern;
            let conj = Conjunction::new(std::slice::from_ref(&v.suffix(v.mb_len())), |_| None);
            let mut kernel = Kernel::default();
            (0..self.results.len())
                .map(|i| kernel.probability(self.forest(), i, &conj))
                .collect()
        })
    }

    /// Every result subtree, tree `i` for result `i`, in the column layout
    /// the embedding and DP kernels run on: distributional nodes kept,
    /// `Id(·)` markers left out (an `fr` pin on a node stands in for its
    /// marker), ordinary slots holding original ids. It depends on the
    /// extension alone, so it is laid out once, on first use. Leaving the
    /// markers out is exact because planning rejects queries that spell a
    /// marker label (see [`crate::answer::plan_checked`]): no compensation
    /// can match one.
    pub fn forest(&self) -> &Forest {
        self.forest.get_or_init(|| {
            let mut forest = Forest::default();
            for r in &self.results {
                forest.push_pdocument(&self.pdoc, r.ext_root, |n| self.original_of(n));
            }
            forest
        })
    }

    /// Original nodes a compensation selects inside some result subtree
    /// of the maximal world — every node `fr` can give a positive
    /// probability (TP matching is monotone). Embeds on the extension's
    /// forest with one [`Embedder`] for all results; no subtree or world
    /// document is built.
    pub fn candidates(&self, compensation: &TreePattern) -> BTreeSet<NodeId> {
        let forest = self.forest();
        let mut embedder = Embedder::new(compensation);
        let mut out = BTreeSet::new();
        for t in 0..self.results.len() {
            embedder.eval(forest, t, |orig| {
                out.insert(orig);
            });
        }
        out
    }

    /// The `extension node → original node` pairs backing
    /// [`ProbExtension::original_of`], in unspecified order. Together with
    /// the public fields this makes an extension fully decomposable — the
    /// persistent store serializes extensions through this accessor and
    /// rebuilds them with [`ProbExtension::from_parts`].
    pub fn orig_entries(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.orig_of.iter().map(|(&ext, &orig)| (ext, orig))
    }

    /// Reassembles an extension from its parts (the inverse of
    /// [`ProbExtension::orig_entries`] + the public fields), validating
    /// that every referenced extension node actually exists in `pdoc`.
    /// This does **not** re-run the view — it trusts `results` and
    /// `orig_of` to describe a previously materialized extension, which is
    /// exactly what a snapshot restore needs (re-materializing would defeat
    /// the point and could diverge bit-wise from the saved answers).
    pub fn from_parts(
        view: View,
        pdoc: PDocument,
        results: Vec<ViewResult>,
        orig_of: HashMap<NodeId, NodeId>,
    ) -> Result<ProbExtension, String> {
        for r in &results {
            if !pdoc.contains(r.ext_root) {
                return Err(format!("result root {} not in extension", r.ext_root));
            }
        }
        for &ext_node in orig_of.keys() {
            if !pdoc.contains(ext_node) {
                return Err(format!("orig_of node {ext_node} not in extension"));
            }
        }
        Ok(ProbExtension::assemble(view, pdoc, results, orig_of))
    }

    /// [`ProbExtension::from_parts`] for column-oriented callers: the
    /// result triples arrive as three parallel slices (as decoded from a
    /// struct-of-arrays snapshot section) instead of a `ViewResult` row
    /// vector. Validation is identical to `from_parts`.
    pub fn from_columns(
        view: View,
        pdoc: PDocument,
        ext_roots: &[NodeId],
        origs: &[NodeId],
        probs: &[f64],
        orig_of: HashMap<NodeId, NodeId>,
    ) -> Result<ProbExtension, String> {
        if ext_roots.len() != origs.len() || ext_roots.len() != probs.len() {
            return Err(format!(
                "result columns disagree on length ({} root(s), {} original(s), {} probability(ies))",
                ext_roots.len(),
                origs.len(),
                probs.len()
            ));
        }
        let results = ext_roots
            .iter()
            .zip(origs)
            .zip(probs)
            .map(|((&ext_root, &orig), &prob)| ViewResult {
                ext_root,
                orig,
                prob,
            })
            .collect();
        ProbExtension::from_parts(view, pdoc, results, orig_of)
    }

    /// Number of *ordinary, non-marker* nodes from the result root to
    /// `ext_node`, inclusive on both ends (the paper's `s(i, j)` when
    /// `ext_node` is an occurrence of `n_j` in result `i`).
    pub fn depth_in_result(&self, i: usize, ext_node: NodeId) -> usize {
        let root = self.results[i].ext_root;
        let mut depth = 0;
        let mut cur = Some(ext_node);
        while let Some(c) = cur {
            if self.orig_of.contains_key(&c) {
                depth += 1;
            }
            if c == root {
                return depth;
            }
            cur = self.pdoc.parent(c);
        }
        panic!("ext node {ext_node} not inside result {i}");
    }
}

/// How [`ProbExtension::apply_delta`] serviced an edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// Localization succeeded: `reused` results kept their stored
    /// probabilities (their scopes were untouched), `recomputed` were
    /// re-evaluated over their pruned scopes.
    Incremental {
        /// Results whose stored probability was reused bit-identically.
        reused: usize,
        /// Results re-evaluated because the edit intersected their scope.
        recomputed: usize,
    },
    /// The edit could not be localized (or touched every candidate's
    /// scope): the extension was rebuilt by full rematerialization.
    Rematerialized,
}

impl DeltaOutcome {
    /// Whether the incremental path ran (any localization at all).
    pub fn is_incremental(&self) -> bool {
        matches!(self, DeltaOutcome::Incremental { .. })
    }
}

/// One candidate's localization context: the candidate node and the
/// anchor whose pruned scope contains every witness of its matches.
struct Scope {
    candidate: NodeId,
    anchor: NodeId,
}

/// The anchor of candidate `n` for a pattern whose first predicate sits
/// at main-branch index `j`: the ordinary ancestor of `n` at ordinary
/// depth `min(j, depth(n))`. Every embedding selecting `n` maps
/// main-branch node `i` to a root-path node at depth ≥ `i`, so all
/// predicate witnesses (and `n`'s own result subtree) live inside this
/// anchor's subtree.
fn anchor_of(pdoc: &PDocument, n: NodeId, j: usize) -> NodeId {
    let ordinary_path: Vec<NodeId> = pdoc
        .root_path(n)
        .into_iter()
        .filter(|&m| pdoc.label(m).is_some())
        .collect();
    ordinary_path[j.min(ordinary_path.len() - 1)]
}

/// Computes the view's answers over `pdoc`, one scope at a time.
/// `reuse(scope)` may short-circuit a candidate with a known probability
/// (the delta path's cache hit); `None` evaluates the candidate over its
/// pruned scope. Zero-probability candidates are filtered, and answers
/// come back in candidate order (sorted by node id) — the order result
/// subtrees are copied in, which pins the extension's fresh-id layout.
fn scoped_answers(
    pdoc: &PDocument,
    q: &pxv_tpq::TreePattern,
    mut reuse: impl FnMut(&Scope) -> Option<f64>,
) -> Vec<(NodeId, f64)> {
    let j = q.first_predicate_depth();
    let mut out = Vec::new();
    for n in pxv_peval::candidates(pdoc, q) {
        let scope = Scope {
            candidate: n,
            anchor: anchor_of(pdoc, n, j),
        };
        let p = match reuse(&scope) {
            Some(p) => p,
            None => pxv_peval::eval_tp_at_anchored(pdoc, q, n, scope.anchor),
        };
        if p > 0.0 {
            out.push((n, p));
        }
    }
    out
}

/// Whether `edit` (already applied; `after` is the post-edit document and
/// `effect` its report) intersects a candidate's scope — the sound test
/// behind probability reuse. The scope is `root_path(candidate) ∪
/// subtree(anchor)`; sites outside it are marginalized away by
/// `prune_to_anchor` and provably cannot change the pruned input:
///
/// * inserts touch the scope iff the graft parent is inside the anchor's
///   subtree, or the inserted subtree contains the candidate (new
///   candidates); a graft higher up only adds a sibling subtree the
///   pruning drops (`mux` leftover mass absorbs the new edge without
///   changing surviving edges' probabilities);
/// * deletes touch it iff the removed child hung inside the anchor's
///   subtree — or off a root-path `exp` node, whose collapsed marginal
///   is *not* invariant under sibling removal (mask remapping regroups
///   the float sums);
/// * `SetProb`/`Relabel` touch it iff the edited node is on the
///   candidate's root path (chain probabilities and main-branch labels
///   feed the DP) or inside the anchor's subtree.
fn scope_affected(after: &PDocument, scope: &Scope, edit: &Edit, effect: &EditEffect) -> bool {
    let (n, anchor) = (scope.candidate, scope.anchor);
    match edit {
        Edit::InsertSubtree { .. } => {
            let root = effect.inserted_root.expect("insert effect has a root");
            let parent = effect.parent.expect("insert effect has a parent");
            after.is_ancestor_or_self(root, n) || after.is_ancestor_or_self(anchor, parent)
        }
        Edit::DeleteSubtree { .. } => {
            let parent = effect.parent.expect("delete effect has a parent");
            after.is_ancestor_or_self(anchor, parent)
                || (matches!(after.kind(parent), PKind::Exp(_))
                    && after.is_ancestor_or_self(parent, n))
        }
        Edit::SetProb { node, .. } | Edit::Relabel { node, .. } => {
            after.is_ancestor_or_self(*node, n) || after.is_ancestor_or_self(anchor, *node)
        }
    }
}

/// Assembles the extension container from finished answers: the
/// `doc(v)`-rooted p-document, the `ind` bundle, one marker-annotated
/// result subtree per answer with fresh ids assigned in answer order.
/// Shared by cold materialization and the delta path, so both produce
/// identical containers from identical answers.
fn build_extension(pdoc: &PDocument, view: &View, answers: &[(NodeId, f64)]) -> ProbExtension {
    let mut ext = PDocument::new(view.doc_label());
    let ind = ext.add_dist(ext.root(), PKind::Ind, 1.0);
    let mut orig_of = HashMap::new();
    let mut results = Vec::with_capacity(answers.len());
    for &(orig, prob) in answers {
        let ext_root = copy_subtree_with_markers(pdoc, orig, &mut ext, ind, prob, &mut orig_of);
        results.push(ViewResult {
            ext_root,
            orig,
            prob,
        });
    }
    ProbExtension::assemble(view.clone(), ext, results, orig_of)
}

/// Copies `P̂_orig` under `parent` in `ext` with fresh ids and `Id(·)`
/// markers; returns the copy's root id.
fn copy_subtree_with_markers(
    src: &PDocument,
    orig: NodeId,
    ext: &mut PDocument,
    parent: NodeId,
    top_prob: f64,
    orig_of: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    let root_label = src.label(orig).expect("view results are ordinary nodes");
    let ext_root = ext.add_ordinary(parent, root_label, top_prob);
    orig_of.insert(ext_root, orig);
    ext.add_ordinary(ext_root, id_label(orig), 1.0);
    let mut stack = vec![(orig, ext_root)];
    while let Some((s, d)) = stack.pop() {
        for &c in src.children(s) {
            let prob = src.child_prob(s, c);
            match src.kind(c) {
                PKind::Ordinary(l) => {
                    let dc = ext.add_ordinary(d, *l, prob);
                    orig_of.insert(dc, c);
                    ext.add_ordinary(dc, id_label(c), 1.0);
                    stack.push((c, dc));
                }
                k => {
                    let dc = ext.add_dist(d, k.clone(), prob);
                    stack.push((c, dc));
                }
            }
        }
    }
    ext_root
}

#[cfg(test)]
mod tests {
    use super::*;
    use pxv_pxml::examples_paper::fig2_pper;
    use pxv_tpq::parse::parse_pattern;

    fn v(name: &str, s: &str) -> View {
        View::new(name, parse_pattern(s).unwrap())
    }

    #[test]
    fn example_8_prob_extension() {
        // (P̂PER)_{v1BON}: n5 bundled with probability 0.75.
        let pper = fig2_pper();
        let v1 = v("v1BON", "IT-personnel//person[name/Rick]/bonus");
        let ext = ProbExtension::materialize(&pper, &v1);
        assert_eq!(ext.results.len(), 1);
        assert_eq!(ext.results[0].orig, NodeId(5));
        assert!((ext.results[0].prob - 0.75).abs() < 1e-9);
        assert!(ext.pdoc.validate().is_ok());
        // The subtree keeps the mux structure under bonus: pda/laptop/pda.
        let sub = ext.result_subtree(0);
        assert!(sub.distributional_count() >= 1);
        // v2BON: both bonuses, probability 1 each (Example 8).
        let v2 = v("v2BON", "IT-personnel//person/bonus");
        let ext2 = ProbExtension::materialize(&pper, &v2);
        assert_eq!(ext2.results.len(), 2);
        for r in &ext2.results {
            assert!((r.prob - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn id_markers_expose_identity() {
        let pper = fig2_pper();
        let v2 = v("v2BON", "IT-personnel//person/bonus");
        let ext = ProbExtension::materialize(&pper, &v2);
        // laptop node n24 occurs in the subtree of n5's result.
        let idx = ext
            .results
            .iter()
            .position(|r| r.orig == NodeId(5))
            .unwrap();
        let occ = ext.occurrences_in_result(idx, NodeId(24));
        assert_eq!(occ.len(), 1);
        assert_eq!(ext.original_of(occ[0]), Some(NodeId(24)));
        // And not in n7's result.
        let idx7 = ext
            .results
            .iter()
            .position(|r| r.orig == NodeId(7))
            .unwrap();
        assert!(ext.occurrences_in_result(idx7, NodeId(24)).is_empty());
    }

    #[test]
    fn nested_results_duplicate_content() {
        // v = a//b over a/b1/b2: two results; b2 occurs in both subtrees.
        let p = pxv_pxml::text::parse_pdocument("a#0[b#1[b#2[c#3]]]").unwrap();
        let view = v("nested", "a//b");
        let ext = ProbExtension::materialize(&p, &view);
        assert_eq!(ext.results.len(), 2);
        let containing = ext.results_containing(NodeId(2));
        assert_eq!(containing.len(), 2);
        // Shallower-rooted result (the one at b1) comes first.
        assert_eq!(ext.results[containing[0]].orig, NodeId(1));
        assert_eq!(ext.results[containing[1]].orig, NodeId(2));
        // s-distance: b2 at depth 2 inside b1's subtree.
        let occ = ext.occurrences_in_result(containing[0], NodeId(2));
        assert_eq!(ext.depth_in_result(containing[0], occ[0]), 2);
    }

    #[test]
    fn id_label_round_trip() {
        let l = id_label(NodeId(42));
        assert_eq!(l.name(), "Id(42)");
        assert_eq!(parse_id_label(l), Some(NodeId(42)));
        assert_eq!(parse_id_label(Label::new("bonus")), None);
    }

    /// Two extensions are equal field for field: same container document
    /// (ids included), same results, same marker map. This is the delta
    /// path's contract with cold materialization.
    fn assert_ext_identical(a: &ProbExtension, b: &ProbExtension, what: &str) {
        assert_eq!(a.pdoc.to_string(), b.pdoc.to_string(), "{what}: container");
        assert_eq!(a.results.len(), b.results.len(), "{what}: result count");
        for (r1, r2) in a.results.iter().zip(&b.results) {
            assert_eq!(r1.ext_root, r2.ext_root, "{what}: ext ids");
            assert_eq!(r1.orig, r2.orig, "{what}: orig ids");
            assert_eq!(
                r1.prob.to_bits(),
                r2.prob.to_bits(),
                "{what}: bit-identical probability"
            );
        }
        let mut m1: Vec<_> = a.orig_entries().collect();
        let mut m2: Vec<_> = b.orig_entries().collect();
        m1.sort();
        m2.sort();
        assert_eq!(m1, m2, "{what}: marker maps");
        let d1: Vec<u64> = a.denominators().iter().map(|d| d.to_bits()).collect();
        let d2: Vec<u64> = b.denominators().iter().map(|d| d.to_bits()).collect();
        assert_eq!(d1, d2, "{what}: bit-identical denominators");
        assert_eq!(a.forest(), b.forest(), "{what}: forest columns");
        assert_eq!(a.forest_shape, b.forest_shape, "{what}: forest shape");
    }

    /// The denominator and forest memos are charged up front: filling
    /// them by answering a query leaves `heap_bytes` unchanged, and the
    /// figure equals that of the same extension rebuilt from its columns
    /// (a snapshot restore, which starts with empty memos) and of a
    /// reweighed one (same structure, new probabilities).
    #[test]
    fn denominator_memo_keeps_heap_bytes_deterministic() {
        let pper = fig2_pper();
        let view = v("v2BON", "IT-personnel//person/bonus");
        let ext = ProbExtension::materialize(&pper, &view);
        let before = ext.heap_bytes();
        let q = parse_pattern("IT-personnel//person/bonus[laptop]").unwrap();
        let rw = crate::tp_rewrite::tp_rewrite(&q, std::slice::from_ref(&view))
            .into_iter()
            .next()
            .expect("qBON has a TP plan over v2BON");
        assert!(ext.forest.get().is_none() && ext.denominators.get().is_none());
        assert!(!crate::fr_tp::answer_tp(&rw, &ext).is_empty());
        assert!(ext.forest.get().is_some(), "answering fills the forest");
        assert_eq!(ext.denominators().len(), ext.results.len());
        assert_eq!(ext.forest().shape(), ext.forest_shape);
        assert!(
            ext.forest().len() > ext.orig_entries().count(),
            "distributional slots"
        );
        assert_eq!(ext.heap_bytes(), before, "filling the memos is free");
        let roots: Vec<NodeId> = ext.results.iter().map(|r| r.ext_root).collect();
        let origs: Vec<NodeId> = ext.results.iter().map(|r| r.orig).collect();
        let probs: Vec<f64> = ext.results.iter().map(|r| r.prob).collect();
        let rebuilt = ProbExtension::from_columns(
            view.clone(),
            ext.pdoc.clone(),
            &roots,
            &origs,
            &probs,
            ext.orig_entries().collect(),
        )
        .expect("valid columns");
        assert_eq!(rebuilt.heap_bytes(), before);
        assert_ext_identical(&rebuilt, &ext, "from_columns");
        // A positive→positive reweigh keeps every structure: same charge,
        // filled or not.
        let mut after = pper.clone();
        let edit = Edit::SetProb {
            node: NodeId(24),
            prob: 0.5,
        };
        let effect = after.apply_edit(&edit).unwrap();
        let (reweighed, _) = ext.apply_delta(&after, &edit, &effect);
        assert!(reweighed.forest.get().is_none());
        assert_eq!(reweighed.heap_bytes(), before);
        reweighed.denominators();
        assert_eq!(reweighed.heap_bytes(), before);
        assert_ext_identical(
            &reweighed,
            &ProbExtension::materialize(&after, &view),
            "reweigh",
        );
    }

    /// Every edit kind, applied to the personnel scenario: the
    /// incrementally maintained extension is identical to cold
    /// materialization from the post-edit document, and localized edits
    /// actually reuse work.
    #[test]
    fn delta_matches_cold_materialization_and_localizes() {
        use pxv_pxml::text::parse_pdocument;
        let base = fig2_pper();
        let view = v("v2BON", "IT-personnel//person/bonus");
        let edits: Vec<Edit> = vec![
            // Reweigh the laptop/pda mux under Rick's bonus (node 24 is
            // the laptop branch in fig2).
            Edit::SetProb {
                node: NodeId(24),
                prob: 0.5,
            },
            // Relabel a leaf inside one person.
            Edit::Relabel {
                node: NodeId(24),
                label: pxv_pxml::Label::new("tablet"),
            },
            // Graft a whole new person (a new bonus candidate appears).
            Edit::InsertSubtree {
                parent: NodeId(1),
                prob: 1.0,
                subtree: parse_pdocument("person[name[Zoe], bonus[mug]]").unwrap(),
            },
            // Delete one existing bonus subtree.
            Edit::DeleteSubtree { node: NodeId(7) },
        ];
        let mut doc = base.clone();
        let mut ext = ProbExtension::materialize(&doc, &view);
        let mut any_reuse = false;
        for edit in &edits {
            let mut after = doc.clone();
            let effect = after.apply_edit(edit).expect("edit applies");
            let (delta_ext, outcome) = ext.apply_delta(&after, edit, &effect);
            let cold = ProbExtension::materialize(&after, &view);
            assert_ext_identical(&delta_ext, &cold, &format!("{edit}"));
            if let DeltaOutcome::Incremental { reused, .. } = outcome {
                any_reuse |= reused > 0;
            }
            doc = after;
            ext = delta_ext;
        }
        assert!(
            any_reuse,
            "localized edits on a multi-person document must reuse results"
        );
    }

    /// Reweighs that cross zero change an answer's *support* and must
    /// take the general rebuild path (the in-place fast path only covers
    /// positive→positive); either way the result equals cold
    /// materialization.
    #[test]
    fn reweigh_through_zero_changes_support_correctly() {
        let doc0 = pxv_pxml::text::parse_pdocument("a#0[mux#1(0.4: b#2[c#3], 0.5: b#4)]").unwrap();
        let view = v("bs", "a/b");
        let mut doc = doc0.clone();
        let mut ext = ProbExtension::materialize(&doc, &view);
        assert_eq!(ext.results.len(), 2);
        // 0.4 → 0: b#2 leaves the support.
        for (node, prob, want_results) in [
            (NodeId(2), 0.0, 1),
            (NodeId(2), 0.3, 2),  // 0 → 0.3: it comes back
            (NodeId(4), 0.25, 2), // positive → positive: fast path
        ] {
            let edit = Edit::SetProb { node, prob };
            let mut after = doc.clone();
            let effect = after.apply_edit(&edit).unwrap();
            let (delta_ext, outcome) = ext.apply_delta(&after, &edit, &effect);
            assert!(outcome.is_incremental(), "{edit}");
            let cold = ProbExtension::materialize(&after, &view);
            assert_ext_identical(&delta_ext, &cold, &format!("{edit}"));
            assert_eq!(delta_ext.results.len(), want_results, "{edit}");
            doc = after;
            ext = delta_ext;
        }
    }

    /// A predicate on the pattern root scopes every candidate to the
    /// whole document: the delta path must fall back, not localize.
    #[test]
    fn root_predicate_views_fall_back() {
        let p = pxv_pxml::text::parse_pdocument("a#0[b#1[c#2], d#3]").unwrap();
        let view = v("rooty", "a[d]/b");
        let ext = ProbExtension::materialize(&p, &view);
        let mut after = p.clone();
        let edit = Edit::Relabel {
            node: NodeId(2),
            label: pxv_pxml::Label::new("x"),
        };
        let effect = after.apply_edit(&edit).unwrap();
        let (delta_ext, outcome) = ext.apply_delta(&after, &edit, &effect);
        assert_eq!(outcome, DeltaOutcome::Rematerialized);
        assert_ext_identical(
            &delta_ext,
            &ProbExtension::materialize(&after, &view),
            "fallback",
        );
    }

    /// Random edit storm over a generated document: after every edit the
    /// maintained extension equals cold materialization, for a
    /// predicate-free view, a mid-branch-predicate view, and through
    /// every edit kind the generator emits.
    #[test]
    fn delta_random_storm_stays_identical() {
        use pxv_pxml::generators::personnel;
        let (mut doc, _) = personnel(6, 2, 41);
        let views = [
            v("bonuses", "IT-personnel//person/bonus"),
            v("ricks", "IT-personnel//person[name/Rick]/bonus"),
        ];
        let mut exts: Vec<ProbExtension> = views
            .iter()
            .map(|view| ProbExtension::materialize(&doc, view))
            .collect();
        // A deterministic little edit script touching scattered nodes.
        let ordinary: Vec<NodeId> = {
            let mut ids: Vec<NodeId> = doc.ordinary_ids().collect();
            ids.sort();
            ids
        };
        let mut edits: Vec<Edit> = Vec::new();
        for (i, &n) in ordinary.iter().enumerate().skip(1) {
            match i % 3 {
                0 => edits.push(Edit::Relabel {
                    node: n,
                    label: pxv_pxml::Label::new("edited"),
                }),
                1 => edits.push(Edit::InsertSubtree {
                    parent: n,
                    prob: 1.0,
                    subtree: pxv_pxml::text::parse_pdocument("note[hi]").unwrap(),
                }),
                _ => {}
            }
        }
        let mut applied = 0;
        for edit in edits {
            let mut after = doc.clone();
            let Ok(effect) = after.apply_edit(&edit) else {
                continue; // structurally rejected (e.g. orphan guard)
            };
            for (view, ext) in views.iter().zip(exts.iter_mut()) {
                let (delta_ext, _) = ext.apply_delta(&after, &edit, &effect);
                let cold = ProbExtension::materialize(&after, view);
                assert_ext_identical(&delta_ext, &cold, &format!("{}: {edit}", view.name));
                *ext = delta_ext;
            }
            doc = after;
            applied += 1;
        }
        assert!(applied > 10, "the storm must actually exercise edits");
    }

    #[test]
    fn example_12_extensions_indistinguishable() {
        // (P̂3)_v and (P̂4)_v have the same results (0.12, 0.24) with
        // structurally identical subtrees (modulo fresh ids).
        use pxv_pxml::examples_paper::{fig5_p3, fig5_p4};
        let view = v("v", "a//b[e]/c/b/c");
        let e3 = ProbExtension::materialize(&fig5_p3(), &view);
        let e4 = ProbExtension::materialize(&fig5_p4(), &view);
        assert_eq!(e3.results.len(), 2);
        assert_eq!(e4.results.len(), 2);
        for (r3, r4) in e3.results.iter().zip(&e4.results) {
            assert!((r3.prob - r4.prob).abs() < 1e-9);
            assert_eq!(r3.orig, r4.orig);
        }
        let probs: Vec<f64> = e3.results.iter().map(|r| r.prob).collect();
        assert!((probs[0] - 0.12).abs() < 1e-9);
        assert!((probs[1] - 0.24).abs() < 1e-9);
    }
}
