//! Dataset-level encoding and the custodian's key.
//!
//! The one front door is the [`Encoder`] builder: configure it once
//! (`Encoder::new(config).threads(0).verify(true)`), then call
//! [`Encoder::encode`]. It draws one independent RNG stream per
//! attribute (seeded from the caller's generator), so the serial path
//! and the crossbeam-threaded path produce **bit-identical** output
//! for the same master seed — parallelism is purely a wall-clock
//! optimization, never a semantic choice. The historical free
//! functions (`encode_dataset` & co.) are gone; the builder is the
//! only entry point.
//!
//! ## Hostile inputs
//!
//! Everything that crosses the untrusted custodian/miner boundary —
//! serialized keys, mined trees, datasets — is treated as potentially
//! corrupt: every fallible operation returns a typed
//! [`PpdtError`] instead of panicking, and the internal draw loop is
//! bounded: exhaustion surfaces as [`PpdtError::DrawExhausted`] with
//! per-attempt reasons.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ppdt_data::{AttrId, ClassId, Dataset, SortedColumn};
use ppdt_error::PpdtError;
use ppdt_tree::split::best_split_sorted;
use ppdt_tree::{CandidatePolicy, DecisionTree, ThresholdPolicy, TreeBuilder, TreeParams};

use crate::breakpoints::{plan_pieces, BreakpointStrategy, PiecePlan};
use crate::family::FnFamily;
use crate::func::MonoFunc;
use crate::piecewise::{Piece, PieceKind, PiecewiseTransform};

/// Configuration of the encoder.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EncodeConfig {
    /// Breakpoint strategy (shared by all attributes).
    pub strategy: BreakpointStrategy,
    /// Function family for non-monochromatic pieces.
    pub family: FnFamily,
    /// Probability that an attribute is globally anti-monotone
    /// (0.0 = always monotone; the paper allows either).
    ///
    /// Exactness caveat: with a globally monotone direction the
    /// decoded tree equals the directly mined tree unconditionally.
    /// Under an anti-monotone direction the candidate-boundary order
    /// reverses, so when two boundaries have *exactly* equal impurity
    /// the miner's deterministic tie-break can pick the mirror
    /// boundary, yielding an equally optimal but structurally
    /// different tree. The default is therefore 0.0;
    /// [`Encoder::verify`] lets a custodian use anti-monotone
    /// directions: it certifies the key from one decode replay and
    /// redraws monotone the attributes whose ties would show.
    pub anti_monotone_prob: f64,
    /// Fraction of the total output span reserved for the random gaps
    /// between piece output intervals; must be strictly positive (a
    /// zero gap would let adjacent intervals touch and break strict
    /// output disjointness).
    pub gap_fraction: f64,
    /// How piece output-interval widths are drawn. Default (and the
    /// only sound choice for privacy): [`LayoutKind::Cascade`].
    /// [`LayoutKind::IidProportional`] exists for the ablation bench —
    /// it concentrates as the piece count grows and hands curve-fitting
    /// attacks a nearly linear aggregate map (`DESIGN.md` §4.4).
    pub layout: LayoutKind,
}

/// Interval-layout generator for the piecewise transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayoutKind {
    /// Binary multiplicative cascade: partial sums fluctuate at every
    /// scale, keeping the aggregate map non-linear for any piece count.
    Cascade,
    /// Widths i.i.d.-jittered proportional to piece size — the naive
    /// scheme; kept for the `ablation_layout` experiment.
    IidProportional,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 20, min_piece_len: 5 },
            family: FnFamily::Mixed,
            anti_monotone_prob: 0.0,
            gap_fraction: 0.15,
            layout: LayoutKind::Cascade,
        }
    }
}

impl EncodeConfig {
    /// The Figure 9 "no breakpoint" baseline: one monotone function per
    /// attribute.
    pub fn baseline(family: FnFamily) -> Self {
        EncodeConfig { strategy: BreakpointStrategy::None, family, ..Default::default() }
    }
}

/// Draws of one attribute's transform before the encoder gives up
/// with [`PpdtError::DrawExhausted`]. A draw fails validation only on
/// a rare numeric collision, so the bound is never reached in practice.
const DRAW_ATTEMPTS: usize = 16;

/// The custodian's key: one [`PiecewiseTransform`] per attribute.
///
/// Serializable (`serde`) — this is the "rather minimal" information
/// of Section 5.4 the custodian must keep to decode the mining result:
/// breakpoints and per-piece transformations.
///
/// A key loaded from disk is untrusted until audited: run
/// [`crate::audit::audit_key`] (or `audit_key_against` with the
/// dataset) before using it on anything that matters. For hot paths,
/// [`crate::compiled::CompiledKey::compile`] audits once and returns a
/// flat, dispatch-free form.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransformKey {
    /// Per-attribute transforms, indexed by attribute.
    pub transforms: Vec<PiecewiseTransform>,
}

impl TransformKey {
    /// The transform of attribute `a`.
    ///
    /// # Panics
    /// Panics when `a` is out of range — this is the trusted-path
    /// accessor for attribute ids that were validated upstream; use
    /// [`TransformKey::try_transform`] for ids read from hostile
    /// artifacts.
    pub fn transform(&self, a: AttrId) -> &PiecewiseTransform {
        &self.transforms[a.index()]
    }

    /// The transform of attribute `a`, or
    /// [`PpdtError::SchemaMismatch`] when the key has no such
    /// attribute.
    pub fn try_transform(&self, a: AttrId) -> Result<&PiecewiseTransform, PpdtError> {
        self.transforms.get(a.index()).ok_or_else(|| PpdtError::SchemaMismatch {
            detail: format!(
                "attribute {a} out of range for a key with {} transform(s)",
                self.transforms.len()
            ),
        })
    }

    /// Encodes one original value of attribute `a`.
    pub fn encode_value(&self, a: AttrId, x: f64) -> Result<f64, PpdtError> {
        self.try_transform(a)?.encode(x).map_err(|e| e.with_attr(a.index()))
    }

    /// Inverts one transformed value of attribute `a` (`f⁻¹(ν')`),
    /// snapped to the original active domain — exact for every value
    /// appearing in `D'`.
    pub fn decode_value(&self, a: AttrId, y: f64) -> Result<f64, PpdtError> {
        self.try_transform(a)?.decode_snapped(y).map_err(|e| e.with_attr(a.index()))
    }

    /// Raw analytic inverse (no snapping) — what Definitions 1–3 call
    /// `f⁻¹` on arbitrary transformed values.
    pub fn decode_value_raw(&self, a: AttrId, y: f64) -> Result<f64, PpdtError> {
        self.try_transform(a)?.decode(y).map_err(|e| e.with_attr(a.index()))
    }

    /// Decodes an entire transformed dataset back to the original —
    /// the custodian's sanity check that the key losslessly inverts
    /// `D'`. Exact on every value produced by [`Encoder::encode`];
    /// a key/dataset arity mismatch or a corrupt transform yields a
    /// typed error.
    pub fn decode_dataset(&self, d_prime: &Dataset) -> Result<Dataset, PpdtError> {
        if self.transforms.len() != d_prime.num_attrs() {
            return Err(PpdtError::SchemaMismatch {
                detail: format!(
                    "key has {} transform(s) but the dataset has {} attribute(s)",
                    self.transforms.len(),
                    d_prime.num_attrs()
                ),
            });
        }
        let mut columns: Vec<Vec<f64>> = Vec::with_capacity(self.transforms.len());
        for a in d_prime.schema().attrs() {
            let tr = self.transform(a);
            let mut col = Vec::with_capacity(d_prime.num_rows());
            for &y in d_prime.column(a) {
                col.push(tr.decode_snapped(y).map_err(|e| e.with_attr(a.index()))?);
            }
            columns.push(col);
        }
        Ok(d_prime.with_columns(columns))
    }

    /// Serializes the key to pretty JSON and writes it to `path`.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> Result<(), PpdtError> {
        let path = path.as_ref();
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| PpdtError::internal(format!("key serialization failed: {e}")))?;
        std::fs::write(path, json).map_err(|e| PpdtError::io(path.display().to_string(), e))
    }

    /// Loads a key previously written with [`TransformKey::save_json`].
    ///
    /// Parsing only — a well-formed JSON file with garbage *contents*
    /// parses fine; run [`crate::audit::audit_key`] on the result
    /// before trusting it.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> Result<TransformKey, PpdtError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| PpdtError::io(path.display().to_string(), e))?;
        serde_json::from_str(&text)
            .map_err(|e| PpdtError::key_corrupt(format!("key file does not parse: {e}")))
    }

    /// Checks that a mined tree is structurally decodable against this
    /// key: every split attribute exists in the key and every
    /// threshold is finite. Cheap; run it before the replay walk.
    pub fn check_tree(&self, mined: &DecisionTree) -> Result<(), PpdtError> {
        use ppdt_tree::Node;
        fn rec(key: &TransformKey, n: &Node) -> Result<(), PpdtError> {
            if let Node::Split { attr, threshold, left, right, .. } = n {
                if attr.index() >= key.transforms.len() {
                    return Err(PpdtError::TreeIncompatible {
                        detail: format!(
                            "split on attribute {attr} but the key has {} transform(s)",
                            key.transforms.len()
                        ),
                    });
                }
                if !threshold.is_finite() {
                    return Err(PpdtError::TreeIncompatible {
                        detail: format!(
                            "non-finite split threshold {threshold} on attribute {attr}"
                        ),
                    });
                }
                rec(key, left)?;
                rec(key, right)?;
            }
            Ok(())
        }
        rec(self, &mined.root)
    }

    /// Decodes the tree `T'` mined on the transformed data into the
    /// tree `S` of Theorem 2, replaying the original data `d` (which
    /// the custodian owns) down the tree. `S` is **bit-exactly** the
    /// tree mined on `d` directly.
    ///
    /// Per node `A' ≤ ν'`:
    /// * the node's tuple subset is partitioned by `f_A(v) ≤ ν'`;
    /// * for a globally monotone attribute the decoded threshold is
    ///   the largest original value on the `≤` side (`DataValue`) or
    ///   the midpoint across the separation (`Midpoint`);
    /// * for a globally **anti-monotone** attribute `A' ≤ ν'` means
    ///   `A ≥ f⁻¹(ν')`, so the children are swapped and the decoded
    ///   `≤`-threshold comes from the complement side.
    ///
    /// Replaying the subset matters: the largest original value on a
    /// side *within the node's subset* is what the direct miner used,
    /// and pointwise inversion of `ν'` does not recover it for
    /// anti-monotone attributes or inside permutation pieces. The
    /// data-free variant [`TransformKey::decode_tree_blind`] is exact
    /// whenever every attribute is globally monotone with no
    /// permutation pieces, and training-equivalent otherwise.
    ///
    /// A tampered tree — unknown attribute id, non-finite threshold,
    /// or a threshold placed so a split side is empty on replay —
    /// yields [`PpdtError::TreeIncompatible`]; a value `d` contains
    /// but the key does not cover yields the underlying transform
    /// error with attribute context.
    ///
    /// The one case the replay cannot repair is an exact score tie at
    /// a split on an anti-monotone attribute (`DESIGN.md` §4 item 3);
    /// [`TransformKey::decode_tree_certified`] finds those.
    ///
    /// # Example
    /// ```
    /// use ppdt_transform::{EncodeConfig, Encoder};
    /// use ppdt_tree::{ThresholdPolicy, TreeBuilder};
    /// use rand::SeedableRng;
    ///
    /// let d = ppdt_data::gen::figure1();
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let (key, d_prime) =
    ///     Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).unwrap().into_parts();
    ///
    /// // The (untrusted) miner sees only D'.
    /// let t_prime = TreeBuilder::default().fit(&d_prime);
    ///
    /// // Decoding T' with the key recovers the tree mined on D directly.
    /// let s = key.decode_tree(&t_prime, ThresholdPolicy::DataValue, &d).unwrap();
    /// let t = TreeBuilder::default().fit(&d);
    /// assert!(ppdt_tree::trees_equal(&s, &t));
    /// ```
    pub fn decode_tree(
        &self,
        mined: &DecisionTree,
        policy: ThresholdPolicy,
        d: &Dataset,
    ) -> Result<DecisionTree, PpdtError> {
        self.replay(mined, policy, d, None).map(|(tree, _)| tree)
    }

    /// [`TransformKey::decode_tree`] plus a certificate that the
    /// decoded tree is the tree `TreeBuilder::new(*params).fit(d)`
    /// mines directly, without mining it.
    ///
    /// `mined` must be the tree `TreeBuilder::new(*params)` fits on
    /// `D'`, the data this (validated) key encodes `d` into, and
    /// `params` must use [`CandidatePolicy::RunBoundaries`]. The
    /// replay then scans, at every node split on a globally
    /// anti-monotone attribute, that attribute's candidate boundaries
    /// on the node's rows of `d` with the miner's own score and
    /// `params`, and flags the node when its best score is reached at
    /// more than one boundary: the miner keeps the first on `D` and,
    /// with the order reversed, the last on `D'`. Splits on monotone
    /// attributes are exact and cost nothing extra. A certificate with
    /// no flag proves the decoded tree equal to the direct one, and a
    /// flag with no flagged ancestor marks a node where they differ
    /// (proof sketch in `DESIGN.md` §4).
    pub fn decode_tree_certified(
        &self,
        mined: &DecisionTree,
        params: &TreeParams,
        d: &Dataset,
    ) -> Result<(DecisionTree, Certificate), PpdtError> {
        self.replay(mined, params.threshold_policy, d, Some(params))
    }

    /// The partition replay behind both decoders; the tie scan runs
    /// only when `certify` carries the miner's parameters.
    fn replay(
        &self,
        mined: &DecisionTree,
        policy: ThresholdPolicy,
        d: &Dataset,
        certify: Option<&TreeParams>,
    ) -> Result<(DecisionTree, Certificate), PpdtError> {
        use ppdt_tree::Node;
        let _t = ppdt_obs::phase("decode");
        self.check_tree(mined)?;
        let midpoint = matches!(policy, ThresholdPolicy::Midpoint);

        struct Ctx<'a> {
            key: &'a TransformKey,
            d: &'a Dataset,
            midpoint: bool,
            certify: Option<&'a TreeParams>,
            cert: Certificate,
            /// Preorder index of the next node of `mined` visited.
            next_node: usize,
        }

        fn rec(
            ctx: &mut Ctx<'_>,
            n: &Node,
            rows: Vec<u32>,
            below_flag: bool,
        ) -> Result<Node, PpdtError> {
            let node = ctx.next_node;
            ctx.next_node += 1;
            match n {
                Node::Leaf { .. } => Ok(n.clone()),
                Node::Split { attr, threshold, class_counts, left, right } => {
                    ppdt_obs::add(ppdt_obs::Counter::NodesDecoded, 1);
                    let tr = ctx.key.transform(*attr);
                    let col = ctx.d.column(*attr);
                    let mut rows_le = Vec::new();
                    let mut rows_gt = Vec::new();
                    let mut le_min = f64::INFINITY;
                    let mut le_max = f64::NEG_INFINITY;
                    let mut gt_min = f64::INFINITY;
                    let mut gt_max = f64::NEG_INFINITY;
                    for &r in &rows {
                        let x = col[r as usize];
                        let y = tr.encode(x).map_err(|e| e.with_attr(attr.index()))?;
                        if y <= *threshold {
                            le_min = le_min.min(x);
                            le_max = le_max.max(x);
                            rows_le.push(r);
                        } else {
                            gt_min = gt_min.min(x);
                            gt_max = gt_max.max(x);
                            rows_gt.push(r);
                        }
                    }
                    if rows_le.is_empty() || rows_gt.is_empty() {
                        return Err(PpdtError::TreeIncompatible {
                            detail: format!(
                                "split `attr {attr} ≤ {threshold}` leaves an empty side when \
                                 replayed on the original data"
                            ),
                        });
                    }
                    let mut flagged = below_flag;
                    if let Some(p) = ctx.certify.filter(|_| !tr.increasing) {
                        if tied_boundaries(ctx.d, *attr, &rows, p) > 1 {
                            ctx.cert.flags.push(TieFlag { node, attr: *attr, below_flag });
                            flagged = true;
                        }
                    }
                    let left_d = rec(ctx, left, rows_le, flagged)?;
                    let right_d = rec(ctx, right, rows_gt, flagged)?;
                    let (t, l, r) = if le_max < gt_min {
                        // `≤` side is the original-space lower side.
                        let t = if ctx.midpoint { 0.5 * (le_max + gt_min) } else { le_max };
                        (t, left_d, right_d)
                    } else {
                        // Anti-monotone: `≤` side is the upper side.
                        let t = if ctx.midpoint { 0.5 * (gt_max + le_min) } else { gt_max };
                        (t, right_d, left_d)
                    };
                    Ok(Node::Split {
                        attr: *attr,
                        threshold: t,
                        class_counts: class_counts.clone(),
                        left: Box::new(l),
                        right: Box::new(r),
                    })
                }
            }
        }

        let mut ctx =
            Ctx { key: self, d, midpoint, certify, cert: Certificate::default(), next_node: 0 };
        let rows: Vec<u32> = (0..d.num_rows() as u32).collect();
        let root = rec(&mut ctx, &mined.root, rows, false)?;
        let tree =
            DecisionTree { root, num_classes: mined.num_classes, criterion: mined.criterion };
        Ok((tree, ctx.cert))
    }

    /// Data-free decode (the literal Theorem 2 construction): every
    /// threshold is decoded against the key's recorded active domain,
    /// with children swapped on anti-monotone attributes. Bit-exact
    /// when every attribute is globally monotone with no permutation
    /// pieces; otherwise the result classifies the training data
    /// identically but thresholds may sit at different (equivalent)
    /// positions within inter-value gaps.
    pub fn decode_tree_blind(
        &self,
        mined: &DecisionTree,
        policy: ThresholdPolicy,
    ) -> Result<DecisionTree, PpdtError> {
        use ppdt_tree::Node;
        self.check_tree(mined)?;
        let midpoint = matches!(policy, ThresholdPolicy::Midpoint);
        let mut maps: Vec<Option<Vec<(f64, f64)>>> = vec![None; self.transforms.len()];

        fn rec(
            key: &TransformKey,
            maps: &mut Vec<Option<Vec<(f64, f64)>>>,
            n: &Node,
            midpoint: bool,
        ) -> Result<Node, PpdtError> {
            match n {
                Node::Leaf { .. } => Ok(n.clone()),
                Node::Split { attr, threshold, class_counts, left, right } => {
                    let tr = key.transform(*attr);
                    let map = match &maps[attr.index()] {
                        Some(m) => m,
                        None => {
                            let m = tr
                                .transformed_domain_map()
                                .map_err(|e| e.with_attr(attr.index()))?;
                            maps[attr.index()].insert(m)
                        }
                    };
                    let t = crate::piecewise::decode_le_split(map, *threshold, midpoint)
                        .map_err(|e| e.with_attr(attr.index()))?;
                    let left_d = rec(key, maps, left, midpoint)?;
                    let right_d = rec(key, maps, right, midpoint)?;
                    let (l, r) = if tr.increasing { (left_d, right_d) } else { (right_d, left_d) };
                    Ok(Node::Split {
                        attr: *attr,
                        threshold: t,
                        class_counts: class_counts.clone(),
                        left: Box::new(l),
                        right: Box::new(r),
                    })
                }
            }
        }
        Ok(DecisionTree {
            root: rec(self, &mut maps, &mined.root, midpoint)?,
            num_classes: mined.num_classes,
            criterion: mined.criterion,
        })
    }
}

/// The Theorem 2 certificate of one decoded tree
/// ([`TransformKey::decode_tree_certified`]): the nodes where an exact
/// score tie on an anti-monotone attribute can make the decoded tree
/// differ from the directly mined one. No flag proves them equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Certificate {
    /// Every flagged node, in preorder of the mined tree.
    pub flags: Vec<TieFlag>,
}

/// One node a [`Certificate`] flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TieFlag {
    /// Preorder index of the node in the mined tree `T'` (0 = root,
    /// left subtree before right).
    pub node: usize,
    /// The node's split attribute, globally anti-monotone in the key.
    pub attr: AttrId,
    /// Whether an ancestor is flagged too. Below a flag the replayed
    /// rows are no longer the rows the direct miner has at the node,
    /// so such a flag says nothing about the direct tree.
    pub below_flag: bool,
}

impl Certificate {
    /// The attributes flagged at nodes with no flagged ancestor,
    /// ascending and without repeats. Each such node is one where the
    /// decoded tree differs from the direct tree; redrawing these
    /// attributes **monotone** clears them, while an anti-monotone
    /// redraw would reverse the same tie again.
    pub fn attrs_to_redraw(&self) -> Vec<AttrId> {
        let mut attrs: Vec<AttrId> =
            self.flags.iter().filter(|f| !f.below_flag).map(|f| f.attr).collect();
        attrs.sort();
        attrs.dedup();
        attrs
    }
}

/// How many of `attr`'s candidate boundaries on the node's `rows` of
/// `d` reach the node's best score, scanned by the miner's own
/// [`best_split_sorted`] under `params` (0 when none qualifies).
fn tied_boundaries(d: &Dataset, attr: AttrId, rows: &[u32], params: &TreeParams) -> usize {
    let col = d.column(attr);
    let mut pairs: Vec<(f64, ClassId)> =
        rows.iter().map(|&r| (col[r as usize], d.label(r as usize))).collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    best_split_sorted(
        &pairs,
        d.num_classes(),
        params.criterion,
        params.candidate_policy,
        params.min_samples_leaf,
    )
    .map_or(0, |s| s.ties)
}

/// The result of an [`Encoder::encode`] run: the custodian's key, the
/// transformed dataset `D'` handed to the miner, and (for verified
/// runs) how many draw attempts were used.
#[derive(Clone, Debug, PartialEq)]
pub struct Encoded {
    /// The custodian's key.
    pub key: TransformKey,
    /// The transformed dataset `D'`.
    pub dataset: Dataset,
    /// Number of draws of the key. Always 1 for unverified runs and
    /// for verified runs whose first draw certifies (every key with no
    /// anti-monotone attribute does). Each further draw of a verified
    /// run redrew at least one flagged anti-monotone attribute
    /// monotone, so there are at most `1 + a` draws when the first
    /// draw made `a` attributes anti-monotone.
    pub attempts: usize,
}

impl Encoded {
    /// Splits into `(key, dataset)` — the shape the historical free
    /// functions returned.
    pub fn into_parts(self) -> (TransformKey, Dataset) {
        (self.key, self.dataset)
    }
}

/// The one front door for dataset encoding. Collapses the historical
/// `encode_dataset` / `_with` / `_parallel` / `_parallel_with` /
/// `_verified` free functions behind a builder:
///
/// ```
/// use ppdt_data::gen::figure1;
/// use ppdt_transform::{EncodeConfig, Encoder};
/// use ppdt_tree::{trees_equal, ThresholdPolicy, TreeBuilder};
/// use rand::SeedableRng;
///
/// let d = figure1();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let (key, d_prime) =
///     Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).unwrap().into_parts();
///
/// // The miner's tree decodes to exactly the direct tree (Theorem 2).
/// let builder = TreeBuilder::default();
/// let mined = builder.fit(&d_prime);
/// let decoded = key.decode_tree(&mined, ThresholdPolicy::DataValue, &d).unwrap();
/// assert!(trees_equal(&decoded, &builder.fit(&d)));
/// ```
///
/// Thread count is a pure wall-clock choice — any value produces
/// bit-identical output for the same master seed:
///
/// ```
/// use ppdt_data::gen::figure1;
/// use ppdt_transform::{EncodeConfig, Encoder};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let d = figure1();
/// let config = EncodeConfig::default();
/// let serial = Encoder::new(config).encode(&mut StdRng::seed_from_u64(7), &d).unwrap();
/// let parallel =
///     Encoder::new(config).threads(0).encode(&mut StdRng::seed_from_u64(7), &d).unwrap();
/// assert_eq!(serial, parallel);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Encoder {
    config: EncodeConfig,
    /// 1 = serial (default); 0 = auto (`ppdt_obs::threads`); n =
    /// exactly n crossbeam workers.
    threads: usize,
    verify: Option<TreeParams>,
}

impl Encoder {
    /// An encoder with the given configuration, serial execution and
    /// no verification.
    pub fn new(config: EncodeConfig) -> Encoder {
        Encoder { config, threads: 1, verify: None }
    }

    /// Sets the worker-thread count: `1` (default) encodes serially on
    /// the calling thread, `0` auto-sizes via [`ppdt_obs::threads`]
    /// (`PPDT_THREADS` / hardware), any other value uses exactly that
    /// many crossbeam scoped workers. Output is bit-identical at every
    /// setting.
    pub fn threads(mut self, n: usize) -> Encoder {
        self.threads = n;
        self
    }

    /// Turns Theorem 2 verification on (with [`TreeParams::default`])
    /// or off. A verified encode returns a key whose mined tree
    /// decodes to exactly the directly mined tree, proved rather than
    /// checked by mining `D`: a key with no anti-monotone attribute is
    /// exact as drawn and fits no tree. Otherwise the encoder fits
    /// `D'` once, certifies the decode replay
    /// ([`TransformKey::decode_tree_certified`]), redraws monotone the
    /// attributes whose ties it flags, and repeats, so it fits at most
    /// one tree per anti-monotone attribute and always ends certified.
    /// Needed for exactness under `anti_monotone_prob > 0`; with
    /// `anti_monotone_prob = 0` the result equals the unverified one.
    pub fn verify(mut self, yes: bool) -> Encoder {
        self.verify = yes.then(TreeParams::default);
        self
    }

    /// Like [`Encoder::verify`] with explicit mining parameters. They
    /// must use [`CandidatePolicy::RunBoundaries`] (the encode fails
    /// with [`PpdtError::InvalidConfig`] otherwise): scoring
    /// boundaries inside label runs would let a permutation piece
    /// change the scores, which the certificate does not cover.
    pub fn verify_with(mut self, params: TreeParams) -> Encoder {
        self.verify = Some(params);
        self
    }

    /// Encodes every attribute of `d`, returning the custodian's key
    /// and the transformed dataset `D'` (plus the attempt count when
    /// verifying).
    pub fn encode<R: Rng + ?Sized>(&self, rng: &mut R, d: &Dataset) -> Result<Encoded, PpdtError> {
        let threads = self.resolve_threads(d.num_attrs());
        match self.verify {
            None => {
                let (key, dataset) = self.encode_once(rng, d, &self.config, threads)?;
                Ok(Encoded { key, dataset, attempts: 1 })
            }
            Some(params) => self.encode_verified(rng, d, params, threads),
        }
    }

    /// Builds the piecewise transform of one attribute — the
    /// single-attribute front door (replaces the historical
    /// `encode_attribute{,_with}`). Ignores the thread and verify
    /// settings.
    pub fn encode_attribute<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        d: &Dataset,
        a: AttrId,
    ) -> Result<PiecewiseTransform, PpdtError> {
        draw_attribute_transform(rng, d, a, &self.config)
    }

    fn resolve_threads(&self, num_attrs: usize) -> usize {
        let n = match self.threads {
            0 => ppdt_obs::threads(None),
            n => n,
        };
        n.min(num_attrs).max(1)
    }

    /// One whole-dataset draw at the resolved thread count.
    fn encode_once<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        d: &Dataset,
        config: &EncodeConfig,
        threads: usize,
    ) -> Result<(TransformKey, Dataset), PpdtError> {
        validate_encode_inputs(d, config)?;
        let _t = ppdt_obs::phase("encode");
        let seeds = attr_seeds(rng, d.num_attrs());
        ppdt_obs::add(ppdt_obs::Counter::RowsEncoded, d.num_rows() as u64);

        let n = d.num_attrs();
        if threads <= 1 {
            let mut transforms = Vec::with_capacity(n);
            let mut columns = Vec::with_capacity(n);
            for (a, &seed) in d.schema().attrs().zip(&seeds) {
                let (tr, col) = encode_attribute_seeded(seed, d, a, config)?;
                transforms.push(tr);
                columns.push(col);
            }
            return Ok((TransformKey { transforms }, d.with_columns(columns)));
        }

        type Slot = Option<Result<(PiecewiseTransform, Vec<f64>), PpdtError>>;
        let mut slots: Vec<Slot> = (0..n).map(|_| None).collect();
        crossbeam::thread::scope(|scope| {
            let chunk_len = n.div_ceil(threads);
            for (t, chunk) in slots.chunks_mut(chunk_len).enumerate() {
                let seeds = &seeds;
                let start = t * chunk_len;
                scope.spawn(move |_| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let a = AttrId(start + i);
                        *slot = Some(encode_attribute_seeded(seeds[start + i], d, a, config));
                    }
                });
            }
        })
        .map_err(|_| PpdtError::internal("encode worker thread panicked"))?;

        let mut transforms = Vec::with_capacity(n);
        let mut columns = Vec::with_capacity(n);
        for slot in slots {
            let (tr, col) = slot.ok_or_else(|| {
                PpdtError::internal("encode worker left an attribute slot empty")
            })??;
            transforms.push(tr);
            columns.push(col);
        }
        Ok((TransformKey { transforms }, d.with_columns(columns)))
    }

    /// Custodian-side verified encoding (see [`Encoder::verify`]).
    /// The first draw is the unverified draw from the same generator;
    /// redraws take their seeds from it afterwards.
    fn encode_verified<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        d: &Dataset,
        params: TreeParams,
        threads: usize,
    ) -> Result<Encoded, PpdtError> {
        if params.candidate_policy != CandidatePolicy::RunBoundaries {
            return Err(PpdtError::InvalidConfig {
                param: "candidate_policy".into(),
                detail: "verification certifies run-boundary mining only (Lemma 2)".into(),
            });
        }
        let (mut key, mut dataset) = self.encode_once(rng, d, &self.config, threads)?;
        let monotone = EncodeConfig { anti_monotone_prob: 0.0, ..self.config };
        let builder = TreeBuilder::new(params);
        let mut attempts = 1;
        while key.transforms.iter().any(|tr| !tr.increasing) {
            let (_, cert) = key.decode_tree_certified(&builder.fit(&dataset), &params, d)?;
            let redraw = cert.attrs_to_redraw();
            if redraw.is_empty() {
                break;
            }
            ppdt_obs::add(ppdt_obs::Counter::VerifyRetries, 1);
            attempts += 1;
            for a in redraw {
                let (tr, col) = encode_attribute_seeded(rng.gen(), d, a, &monotone)?;
                key.transforms[a.index()] = tr;
                dataset = dataset.with_column(a, col);
            }
        }
        Ok(Encoded { key, dataset, attempts })
    }
}

fn validate_encode_inputs(d: &Dataset, config: &EncodeConfig) -> Result<(), PpdtError> {
    if d.num_rows() == 0 {
        return Err(PpdtError::EmptyInput { what: "dataset".into() });
    }
    if !(0.0..=1.0).contains(&config.anti_monotone_prob) {
        return Err(PpdtError::InvalidConfig {
            param: "anti_monotone_prob".into(),
            detail: format!("{} is outside [0, 1]", config.anti_monotone_prob),
        });
    }
    if !(config.gap_fraction > 0.0 && config.gap_fraction < 0.9) {
        return Err(PpdtError::InvalidConfig {
            param: "gap_fraction".into(),
            detail: format!(
                "{} is outside (0, 0.9): zero-width gaps would let adjacent piece intervals \
                 touch and break strict output disjointness",
                config.gap_fraction
            ),
        });
    }
    Ok(())
}

/// One seed per attribute, drawn in attribute order from the caller's
/// generator. Pre-drawing is what decouples the per-attribute streams:
/// any encode order (serial, chunked, threaded) then yields the same
/// transforms.
fn attr_seeds<R: Rng + ?Sized>(rng: &mut R, num_attrs: usize) -> Vec<u64> {
    (0..num_attrs).map(|_| rng.gen()).collect()
}

/// Encodes one attribute from its own seeded stream and applies the
/// transform to the attribute's column.
fn encode_attribute_seeded(
    seed: u64,
    d: &Dataset,
    a: AttrId,
    config: &EncodeConfig,
) -> Result<(PiecewiseTransform, Vec<f64>), PpdtError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tr = draw_attribute_transform(&mut rng, d, a, config)?;
    let col: Result<Vec<f64>, PpdtError> =
        d.column(a).iter().map(|&x| tr.encode(x).map_err(|e| e.with_attr(a.index()))).collect();
    Ok((tr, col?))
}

/// Builds the piecewise transform of one attribute.
///
/// The draw is randomized and validated; the (rare) numeric validation
/// failure — e.g. a cascade squeezing a large piece into an interval
/// narrow enough for two f64 outputs to collide — triggers a redraw,
/// at most [`DRAW_ATTEMPTS`] in all. Exhaustion yields
/// [`PpdtError::DrawExhausted`] carrying one reason per failed
/// attempt. Retries beyond the first attempt are counted on
/// [`ppdt_obs::Counter::DrawRetries`].
fn draw_attribute_transform<R: Rng + ?Sized>(
    rng: &mut R,
    d: &Dataset,
    a: AttrId,
    config: &EncodeConfig,
) -> Result<PiecewiseTransform, PpdtError> {
    let sc = d.sorted_column(a);
    if sc.num_distinct() == 0 {
        return Err(PpdtError::EmptyInput { what: format!("attribute {a}") });
    }
    let mut reasons: Vec<String> = Vec::new();
    for attempt in 0..DRAW_ATTEMPTS {
        if attempt > 0 {
            ppdt_obs::add(ppdt_obs::Counter::DrawRetries, 1);
        }
        let plan = plan_pieces(rng, &sc, config.strategy);
        let increasing = !rng.gen_bool(config.anti_monotone_prob);
        let tr = build_transform(rng, &sc, &plan, increasing, config);
        match tr.validate() {
            Ok(()) => {
                ppdt_obs::add(ppdt_obs::Counter::PiecesDrawn, tr.pieces.len() as u64);
                return Ok(tr);
            }
            Err(e) => reasons.push(format!("attempt {}: {e}", attempt + 1)),
        }
    }
    Err(PpdtError::DrawExhausted { attr: Some(a.index()), attempts: DRAW_ATTEMPTS, reasons })
}

/// Materializes a [`PiecewiseTransform`] from a piece plan:
/// 1. draws the overall output span (randomly scaled and shifted copy
///    of the input span),
/// 2. allocates disjoint per-piece output intervals (widths
///    proportional to piece size with random jitter; random gaps in
///    between) in input order — reversed when globally anti-monotone,
///    which realizes the global-(anti-)monotone invariant,
/// 3. draws each piece's function: a random permutation for
///    monochromatic pieces, a direction-consistent sample from the
///    configured family otherwise, renormalized affinely into the
///    piece's interval.
fn build_transform<R: Rng + ?Sized>(
    rng: &mut R,
    sc: &SortedColumn,
    plan: &[PiecePlan],
    increasing: bool,
    config: &EncodeConfig,
) -> PiecewiseTransform {
    let values: Vec<f64> = sc.groups.iter().map(|g| g.value).collect();
    let in_lo = values[0];
    let in_hi = values[values.len() - 1];
    let in_span = (in_hi - in_lo).max(1.0);

    // Overall output span.
    let out_span = in_span * rng.gen_range(0.6..1.8);
    let out_origin = in_lo + rng.gen_range(-0.75..0.75) * in_span;

    // Piece widths: a multiplicative cascade (recursive random
    // splitting) scaled by the square root of the piece's size. Any
    // i.i.d. jitter scheme concentrates as the piece count grows —
    // cumulative interval positions would track the input positions
    // almost linearly, handing curve-fitting attacks an easy target.
    // The cascade keeps relative fluctuations O(1) at *every* scale,
    // so the aggregate map stays non-linear no matter how many pieces
    // ChooseMaxMP produces. (`IidProportional` is the ablation.)
    let weights: Vec<f64> = match config.layout {
        LayoutKind::Cascade => cascade_weights(rng, plan.len())
            .into_iter()
            .zip(plan)
            .map(|(w, p)| w * (p.len() as f64).sqrt())
            .collect(),
        LayoutKind::IidProportional => {
            plan.iter().map(|p| (p.len() as f64) * rng.gen_range(0.6..1.6)).collect()
        }
    };
    let weight_sum: f64 = weights.iter().sum();
    let gaps_total = out_span * config.gap_fraction;
    let body = out_span - gaps_total;
    let n_gaps = plan.len().saturating_sub(1);
    let gap_weights: Vec<f64> = cascade_weights(rng, n_gaps);
    let gap_weight_sum: f64 = gap_weights.iter().sum::<f64>().max(1e-12);

    // Intervals in *input order*; for an anti-monotone attribute they
    // are laid out from the top of the output span downward.
    let mut intervals: Vec<(f64, f64)> = Vec::with_capacity(plan.len());
    let mut cursor = 0.0; // offset within [0, out_span]
    for (i, w) in weights.iter().enumerate() {
        let width = body * w / weight_sum;
        let (lo_off, hi_off) = (cursor, cursor + width);
        cursor = hi_off;
        if i < n_gaps {
            cursor += gaps_total * gap_weights[i] / gap_weight_sum;
        }
        let (lo, hi) = if increasing {
            (out_origin + lo_off, out_origin + hi_off)
        } else {
            (out_origin + out_span - hi_off, out_origin + out_span - lo_off)
        };
        intervals.push((lo, hi));
    }

    let mut pieces = Vec::with_capacity(plan.len());
    for (p, &(out_lo, out_hi)) in plan.iter().zip(&intervals) {
        let vals = &values[p.first_group..p.end_group];
        let input_lo = vals[0];
        let input_hi = vals[vals.len() - 1];
        let kind = if p.mono_label.is_some() {
            PieceKind::Permutation { map: permutation_map(rng, vals, out_lo, out_hi) }
        } else {
            let f = config.family.sample(rng, input_lo, input_hi, increasing);
            let (s, t) = normalize(&f, input_lo, input_hi, out_lo, out_hi);
            PieceKind::Monotone { f, s, t }
        };
        pieces.push(Piece { input_lo, input_hi, output_lo: out_lo, output_hi: out_hi, kind });
    }

    PiecewiseTransform { pieces, increasing, orig_domain: values }
}

/// Positive weights summing to 1, drawn from a binary multiplicative
/// cascade: the budget is split recursively with a uniform fraction in
/// `[0.15, 0.85]` at each level. Unlike i.i.d. weights, the cascade's
/// partial sums fluctuate at every scale, which is what keeps many-
/// piece layouts non-linear (see `build_transform`).
fn cascade_weights<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    fn rec<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64], budget: f64) {
        match out.len() {
            0 => {}
            1 => out[0] = budget,
            len => {
                let mid = len / 2;
                let frac = rng.gen_range(0.07..0.93);
                rec(rng, &mut out[..mid], budget * frac);
                let (_, right) = out.split_at_mut(mid);
                rec(rng, right, budget * (1.0 - frac));
            }
        }
    }
    let mut out = vec![0.0; n];
    rec(rng, &mut out, 1.0);
    out
}

/// Affine renormalization `(s, t)` with `s > 0` mapping the raw range
/// of `f` over `[lo, hi]` onto `[out_lo, out_hi]`.
fn normalize(f: &MonoFunc, lo: f64, hi: f64, out_lo: f64, out_hi: f64) -> (f64, f64) {
    let (ra, rb) = (f.eval(lo), f.eval(hi));
    let (raw_min, raw_max) = (ra.min(rb), ra.max(rb));
    let raw_span = raw_max - raw_min;
    if raw_span <= f64::MIN_POSITIVE * 16.0 {
        // Single-value piece: park the value at the interval's center.
        return (1.0, 0.5 * (out_lo + out_hi) - raw_min);
    }
    let s = (out_hi - out_lo) / raw_span;
    (s, out_lo - s * raw_min)
}

/// A random bijection from the piece's distinct values onto jittered
/// grid positions in `[out_lo, out_hi]` — the `F_bi` of Section 5.3.
fn permutation_map<R: Rng + ?Sized>(
    rng: &mut R,
    vals: &[f64],
    out_lo: f64,
    out_hi: f64,
) -> Vec<(f64, f64)> {
    let k = vals.len();
    let span = out_hi - out_lo;
    let step = span / k as f64;
    let mut targets: Vec<f64> = (0..k)
        .map(|i| out_lo + (i as f64 + 0.5) * step + rng.gen_range(-0.4..0.4) * step)
        .collect();
    targets.shuffle(rng);
    vals.iter().copied().zip(targets.drain(..)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdt_data::gen::{
        covertype_like, figure1, random_dataset, CovertypeConfig, RandomDatasetConfig,
    };
    use ppdt_data::ClassString;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Test shorthand for the builder's `(key, dataset)` shape.
    fn enc(
        rng: &mut StdRng,
        d: &Dataset,
        config: &EncodeConfig,
    ) -> Result<(TransformKey, Dataset), PpdtError> {
        Encoder::new(*config).encode(rng, d).map(Encoded::into_parts)
    }

    fn all_strategies() -> Vec<BreakpointStrategy> {
        vec![
            BreakpointStrategy::None,
            BreakpointStrategy::ChooseBP { w: 3 },
            BreakpointStrategy::ChooseMaxMP { w: 4, min_piece_len: 1 },
        ]
    }

    #[test]
    fn encode_roundtrips_every_domain_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = figure1();
        for strat in all_strategies() {
            let config = EncodeConfig { strategy: strat, ..Default::default() };
            let (key, d2) = enc(&mut rng, &d, &config).unwrap();
            assert_eq!(d2.num_rows(), d.num_rows());
            for a in d.schema().attrs() {
                for &x in &d.active_domain(a) {
                    let y = key.encode_value(a, x).unwrap();
                    assert_eq!(key.decode_value(a, y).unwrap(), x, "{strat:?} attr {a} value {x}");
                }
            }
        }
    }

    #[test]
    fn class_strings_preserved_or_reversed() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg =
            RandomDatasetConfig { num_rows: 300, num_attrs: 3, num_classes: 3, value_range: 50 };
        for trial in 0..10 {
            let d = random_dataset(&mut rng, &cfg);
            let config = EncodeConfig::default();
            let (key, d2) = enc(&mut rng, &d, &config).unwrap();
            for a in d.schema().attrs() {
                // Tie-robust Lemma 1 check (histogram sequence).
                assert!(
                    crate::verify::class_strings_preserved(&d, &d2, a, key.transform(a).increasing),
                    "trial {trial} attr {a}"
                );
                // For globally monotone attributes the literal class
                // string is preserved too.
                if key.transform(a).increasing {
                    assert_eq!(
                        ClassString::of(&d, a),
                        ClassString::of(&d2, a),
                        "trial {trial} attr {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_value_is_changed() {
        // Paper, Section 1: "with the proposed transformations, every
        // data value is transformed" (contrast with perturbation).
        // Identity collisions are measure-zero; check none occur here.
        let mut rng = StdRng::seed_from_u64(3);
        let d = figure1();
        let (_, d2) = enc(&mut rng, &d, &EncodeConfig::default()).unwrap();
        for a in d.schema().attrs() {
            let changed = d.column(a).iter().zip(d2.column(a)).filter(|(x, y)| x != y).count();
            assert_eq!(changed, d.num_rows(), "attr {a}");
        }
    }

    #[test]
    fn transforms_validate_on_covertype_like_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = CovertypeConfig { num_rows: 8_000, ..Default::default() };
        let d = covertype_like(&mut rng, &cfg);
        let config = EncodeConfig::default();
        let (key, _) = enc(&mut rng, &d, &config).unwrap();
        for tr in &key.transforms {
            tr.validate().unwrap();
        }
    }

    #[test]
    fn key_serde_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = figure1();
        let (key, _) = enc(&mut rng, &d, &EncodeConfig::default()).unwrap();
        let s = serde_json::to_string(&key).unwrap();
        let key2: TransformKey = serde_json::from_str(&s).unwrap();
        assert_eq!(key, key2);
    }

    #[test]
    fn decode_tree_recovers_original_datavalue_policy() {
        use ppdt_tree::trees_equal;
        let mut rng = StdRng::seed_from_u64(6);
        let d = figure1();
        for strat in all_strategies() {
            let config = EncodeConfig { strategy: strat, ..Default::default() };
            let (key, d2) = enc(&mut rng, &d, &config).unwrap();
            let builder = TreeBuilder::default();
            let t = builder.fit(&d);
            let t2 = builder.fit(&d2);
            let s = key.decode_tree(&t2, ThresholdPolicy::DataValue, &d).unwrap();
            assert!(
                trees_equal(&s, &t),
                "{strat:?}\nmined:\n{}\ndecoded:\n{}\noriginal:\n{}",
                t2.render(None),
                s.render(None),
                t.render(None)
            );
        }
    }

    #[test]
    fn decode_tree_recovers_original_midpoint_policy() {
        use ppdt_tree::trees_equal;
        let mut rng = StdRng::seed_from_u64(7);
        let d = figure1();
        let params =
            TreeParams { threshold_policy: ThresholdPolicy::Midpoint, ..Default::default() };
        for strat in all_strategies() {
            let config = EncodeConfig { strategy: strat, ..Default::default() };
            let (key, d2) = enc(&mut rng, &d, &config).unwrap();
            let builder = TreeBuilder::new(params);
            let t = builder.fit(&d);
            let t2 = builder.fit(&d2);
            let s = key.decode_tree(&t2, ThresholdPolicy::Midpoint, &d).unwrap();
            assert!(
                trees_equal(&s, &t),
                "{strat:?}\ndecoded:\n{}\noriginal:\n{}",
                s.render(None),
                t.render(None)
            );
        }
    }

    #[test]
    fn decode_dataset_inverts_exactly() {
        let mut rng = StdRng::seed_from_u64(31);
        let d =
            covertype_like(&mut rng, &CovertypeConfig { num_rows: 2_000, ..Default::default() });
        let (key, d2) = enc(&mut rng, &d, &EncodeConfig::default()).unwrap();
        let back = key.decode_dataset(&d2).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn key_file_roundtrip() {
        let mut rng = StdRng::seed_from_u64(32);
        let d = figure1();
        let (key, _) = enc(&mut rng, &d, &EncodeConfig::default()).unwrap();
        let path = std::env::temp_dir().join("ppdt_key_roundtrip.json");
        key.save_json(&path).unwrap();
        let loaded = TransformKey::load_json(&path).unwrap();
        assert_eq!(key, loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_json_rejects_garbage_with_typed_errors() {
        let path = std::env::temp_dir().join("ppdt_key_garbage.json");
        std::fs::write(&path, "not a key").unwrap();
        assert!(matches!(TransformKey::load_json(&path), Err(PpdtError::KeyCorrupt { .. })));
        let _ = std::fs::remove_file(&path);
        // A missing file is an I/O error, not a corrupt key.
        let missing = std::env::temp_dir().join("ppdt_key_never_written.json");
        assert!(matches!(TransformKey::load_json(&missing), Err(PpdtError::Io { .. })));
    }

    #[test]
    fn try_encode_rejects_unseen_values() {
        let mut rng = StdRng::seed_from_u64(33);
        let d = figure1();
        let config = EncodeConfig {
            strategy: BreakpointStrategy::ChooseMaxMP { w: 2, min_piece_len: 1 },
            ..Default::default()
        };
        let (key, _) = enc(&mut rng, &d, &config).unwrap();
        let tr = key.transform(AttrId(0));
        // All domain values encode; a value far outside does not.
        for &x in &tr.orig_domain {
            assert_eq!(tr.try_encode(x), Some(tr.encode(x).unwrap()));
        }
        assert_eq!(tr.try_encode(1e9), None);
    }

    #[test]
    fn composed_family_roundtrips_exactly_after_snapping() {
        // The raw analytic inverse of a composed function can be
        // ill-conditioned, but snapping to the active domain restores
        // exactness as long as the error is below half a domain gap.
        use ppdt_data::gen::{random_dataset, RandomDatasetConfig};
        let mut rng = StdRng::seed_from_u64(35);
        let cfg =
            RandomDatasetConfig { num_rows: 200, num_attrs: 2, num_classes: 2, value_range: 50 };
        for _ in 0..5 {
            let d = random_dataset(&mut rng, &cfg);
            let config = EncodeConfig { family: FnFamily::Composed, ..Default::default() };
            let (key, _) = enc(&mut rng, &d, &config).unwrap();
            for a in d.schema().attrs() {
                for &x in &d.active_domain(a) {
                    let y = key.encode_value(a, x).unwrap();
                    assert_eq!(key.decode_value(a, y).unwrap(), x, "attr {a} value {x}");
                }
            }
        }
    }

    #[test]
    fn iid_layout_ablation_still_correct() {
        // The i.i.d. layout is weaker for privacy but must preserve
        // the guarantee just the same.
        use ppdt_tree::trees_equal;
        let mut rng = StdRng::seed_from_u64(34);
        let d = figure1();
        let config = EncodeConfig { layout: LayoutKind::IidProportional, ..Default::default() };
        let (key, d2) = enc(&mut rng, &d, &config).unwrap();
        let builder = TreeBuilder::default();
        let s = key.decode_tree(&builder.fit(&d2), ThresholdPolicy::DataValue, &d).unwrap();
        assert!(trees_equal(&s, &builder.fit(&d)));
    }

    #[test]
    fn empty_dataset_rejected_with_typed_error() {
        let d = ppdt_data::Dataset::from_columns(
            ppdt_data::Schema::generated(1, 2),
            vec![vec![]],
            vec![],
        );
        let mut rng = StdRng::seed_from_u64(8);
        let err = enc(&mut rng, &d, &EncodeConfig::default()).unwrap_err();
        assert!(matches!(err, PpdtError::EmptyInput { .. }), "{err:?}");
    }

    #[test]
    fn invalid_config_rejected_with_typed_error() {
        let d = figure1();
        let mut rng = StdRng::seed_from_u64(8);
        let bad = EncodeConfig { gap_fraction: 0.0, ..Default::default() };
        let err = enc(&mut rng, &d, &bad).unwrap_err();
        assert!(matches!(err, PpdtError::InvalidConfig { .. }), "{err:?}");
        assert_eq!(err.category().exit_code(), 2);
    }

    #[test]
    fn forced_anti_monotone_reverses_all() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = figure1();
        let config = EncodeConfig { anti_monotone_prob: 1.0, ..Default::default() };
        let (key, d2) = enc(&mut rng, &d, &config).unwrap();
        for a in d.schema().attrs() {
            assert!(!key.transform(a).increasing);
            assert_eq!(ClassString::of(&d, a).reversed(), ClassString::of(&d2, a), "attr {a}");
        }
    }

    #[test]
    fn decode_tree_rejects_tampered_trees() {
        use ppdt_tree::Node;
        let mut rng = StdRng::seed_from_u64(40);
        let d = figure1();
        let (key, d2) = enc(&mut rng, &d, &EncodeConfig::default()).unwrap();
        let mined = TreeBuilder::default().fit(&d2);

        // Unknown attribute id.
        let mut bad = mined.clone();
        if let Node::Split { attr, .. } = &mut bad.root {
            *attr = AttrId(99);
        }
        let err = key.decode_tree(&bad, ThresholdPolicy::DataValue, &d).unwrap_err();
        assert!(matches!(err, PpdtError::TreeIncompatible { .. }), "{err:?}");
        assert_eq!(err.category().exit_code(), 5);

        // Non-finite threshold.
        let mut bad = mined.clone();
        if let Node::Split { threshold, .. } = &mut bad.root {
            *threshold = f64::NAN;
        }
        let err = key.decode_tree(&bad, ThresholdPolicy::DataValue, &d).unwrap_err();
        assert!(matches!(err, PpdtError::TreeIncompatible { .. }), "{err:?}");

        // Threshold below every transformed value: empty `≤` side.
        let mut bad = mined.clone();
        if let Node::Split { threshold, .. } = &mut bad.root {
            *threshold = -1e18;
        }
        let err = key.decode_tree(&bad, ThresholdPolicy::DataValue, &d).unwrap_err();
        assert!(matches!(err, PpdtError::TreeIncompatible { .. }), "{err:?}");
        // The blind decoder accepts it (no replay), so only the
        // replayed decode catches this class of tampering.
        let _ = key.decode_tree_blind(&bad, ThresholdPolicy::DataValue).unwrap();
    }

    #[test]
    fn builder_thread_counts_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(50);
        let cfg =
            RandomDatasetConfig { num_rows: 150, num_attrs: 5, num_classes: 3, value_range: 30 };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig::default();
        let base = Encoder::new(config).encode(&mut StdRng::seed_from_u64(7), &d).unwrap();
        for threads in [0, 2, 3, 8] {
            let got = Encoder::new(config)
                .threads(threads)
                .encode(&mut StdRng::seed_from_u64(7), &d)
                .unwrap();
            assert_eq!(base, got, "threads={threads}");
        }
    }

    #[test]
    fn builder_verified_encode_attempts_reported() {
        let mut rng = StdRng::seed_from_u64(52);
        let d = figure1();
        let e = Encoder::new(EncodeConfig { anti_monotone_prob: 1.0, ..Default::default() })
            .verify(true)
            .encode(&mut rng, &d)
            .unwrap();
        assert!((1..=1 + d.num_attrs()).contains(&e.attempts), "{}", e.attempts);
        let builder = TreeBuilder::default();
        let s =
            e.key.decode_tree(&builder.fit(&e.dataset), ThresholdPolicy::DataValue, &d).unwrap();
        assert!(ppdt_tree::trees_equal(&s, &builder.fit(&d)));
    }
}
