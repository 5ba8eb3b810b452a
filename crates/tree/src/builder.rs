//! The decision-tree builder: presorted and breadth-first, in the
//! style of SLIQ/SPRINT.
//!
//! Every attribute is sorted once for the whole table
//! (`O(m · n log n)`), and each level of the tree is grown by one
//! `O(m · n)` pass over those orders: each row is dispatched to its
//! current node, and every node on the frontier keeps an incremental
//! split-search state that scores the same candidate boundaries as
//! [`best_split_sorted`] would on the node's own sorted tuples, with
//! the same score function ([`SplitCriterion::boundary_score`]) and the
//! same strict-`<` first-wins tie-breaking. The tree is therefore,
//! bit for bit, the textbook recursive construction the paper's
//! Section 4 reasons about; `tests/parallel_serial.rs` keeps that
//! construction as a serial reference and checks [`TreeBuilder::fit`]
//! against it.
//!
//! The per-level pass is parallelized **attribute-wise**, as the
//! SLIQ/SPRINT papers prescribe: attributes are split into contiguous
//! ascending ranges, one scoped worker thread per range, and each
//! worker keeps its per-node scan state in disjoint `chunks_mut`
//! slices of flat arenas (class histograms as one
//! `workers × active_nodes × classes` `Vec<u32>`, reused across
//! levels). Because every worker scans its attributes in ascending
//! order with strict `<` first-wins, and the serial merge visits the
//! per-worker winners in ascending attribute-range order with the same
//! strict `<`, the global attr-major first-wins tie-break is preserved
//! bit for bit — the tree is independent of the thread count.
//!
//! [`best_split_sorted`]: crate::split::best_split_sorted

use std::ops::Range;

use serde::{Deserialize, Serialize};

use ppdt_data::{AttrId, ClassId, Dataset};

use crate::split::{CandidatePolicy, SplitCriterion};
use crate::tree::{DecisionTree, Node};

/// How the numeric split threshold is materialized from the winning
/// boundary between two distinct values `v_left < v_right`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdPolicy {
    /// `threshold = v_left`, as C4.5 does ("the largest value not
    /// exceeding the midpoint" of the boundary). With this policy the
    /// threshold is always a data value, so decoding is the pointwise
    /// inverse transformation and Theorem 2 equality is exact.
    DataValue,
    /// `threshold = (v_left + v_right)/2`, as CART does. Decoding a
    /// midpoint threshold under a nonlinear transformation needs the
    /// data-aware decoder (`ppdt-transform` provides it).
    Midpoint,
}

/// Builder hyperparameters (C4.5-style stopping rules).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Split-selection criterion.
    pub criterion: SplitCriterion,
    /// Threshold materialization policy.
    pub threshold_policy: ThresholdPolicy,
    /// Candidate-boundary enumeration policy.
    pub candidate_policy: CandidatePolicy,
    /// Maximum tree depth (`usize::MAX` for unbounded).
    pub max_depth: usize,
    /// Minimum tuples required to attempt a split.
    pub min_samples_split: u32,
    /// Minimum tuples in each child.
    pub min_samples_leaf: u32,
    /// Minimum impurity decrease required to accept a split.
    pub min_impurity_decrease: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            criterion: SplitCriterion::Gini,
            threshold_policy: ThresholdPolicy::DataValue,
            candidate_policy: CandidatePolicy::RunBoundaries,
            max_depth: usize::MAX,
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_impurity_decrease: 0.0,
        }
    }
}

impl TreeParams {
    /// Parameters with the given criterion, rest default.
    pub fn with_criterion(criterion: SplitCriterion) -> Self {
        TreeParams { criterion, ..Default::default() }
    }
}

/// Builds decision trees from a [`Dataset`].
///
/// ```
/// use ppdt_data::gen::figure1;
/// use ppdt_tree::{SplitCriterion, TreeBuilder, TreeParams};
///
/// let d = figure1();
/// let tree = TreeBuilder::new(TreeParams::with_criterion(SplitCriterion::Gini)).fit(&d);
/// assert_eq!(tree.accuracy(&d), 1.0);
/// assert!(tree.paths().len() >= 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    params: TreeParams,
    /// Explicit worker-thread count for the parallel split search;
    /// `None` resolves through [`ppdt_obs::threads`] (the
    /// `PPDT_THREADS` override, then hardware parallelism).
    threads: Option<usize>,
}

/// Below this many histogram cells (`rows × attributes`) the level
/// scans stay serial even when more workers are available: the
/// thread-spawn overhead would exceed the scan itself. The emitted tree
/// never depends on this gate — only wall-clock does.
const PARALLEL_MIN_CELLS: usize = 8192;

impl TreeBuilder {
    /// A builder with the given parameters.
    pub fn new(params: TreeParams) -> Self {
        TreeBuilder { params, threads: None }
    }

    /// Sets the worker-thread count for the split search in [`fit`].
    /// `None` (the default) resolves via [`ppdt_obs::threads`]: the
    /// `PPDT_THREADS` environment override, else available hardware
    /// parallelism. Thread count never changes the emitted tree — the
    /// parallel level scan is bit-identical to serial (see
    /// `tests/parallel_serial.rs`).
    ///
    /// [`fit`]: TreeBuilder::fit
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The builder's parameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Trains a tree on `d`.
    ///
    /// The tree is the textbook greedy construction the paper's
    /// Section 4 reasons about: at each node, for every attribute,
    /// evaluate the candidate boundaries between label runs of the
    /// node's sorted tuples (Lemma 2), pick the attribute/boundary with
    /// the lowest weighted child impurity (first-wins tie-breaking on
    /// exact score equality, so the choice is a pure function of class
    /// counts), and split the node.
    ///
    /// It is computed presorted and breadth-first, one pass over the
    /// presorted attribute orders per tree level, and each pass fans
    /// out attribute-wise over the [`with_threads`] workers (see the
    /// module docs for why neither can change the result).
    ///
    /// # Panics
    /// Panics on an empty dataset — there is nothing to fit.
    ///
    /// [`with_threads`]: TreeBuilder::with_threads
    pub fn fit(&self, d: &Dataset) -> DecisionTree {
        assert!(d.num_rows() > 0, "cannot fit a tree on an empty dataset");
        assert!(
            d.num_rows() <= u32::MAX as usize,
            "row count exceeds the u32 index space used by the mining layer"
        );
        let _t = ppdt_obs::phase("mine");
        let p = self.params;
        let (n, k, m) = (d.num_rows(), d.num_classes(), d.num_attrs());
        let threads = ppdt_obs::threads(self.threads).min(m).max(1);
        ppdt_obs::record_max(ppdt_obs::Counter::MiningThreads, threads as u64);

        // One global sort per attribute. Stability does not matter for
        // the scan (only group histograms are consumed), so the shared
        // helper's index tie-break is merely a determinism bonus.
        let orders: Vec<Vec<u32>> = (0..m)
            .map(|a| {
                let mut order = Vec::new();
                ppdt_data::sorted_order_by_value(d.column(AttrId(a)), |&v| v, &mut order)
                    .expect("row count fits u32 (asserted at fit entry)");
                order
            })
            .collect();

        let mut root_counts = vec![0u32; k];
        for c in d.labels() {
            root_counts[c.index()] += 1;
        }
        let mut nodes = vec![WorkNode { counts: root_counts, split: None }];
        let mut node_of_row = vec![0u32; n];

        // Per-level working memory, reused (not reallocated) across
        // levels. The histogram/meta/best arenas hold `nw` disjoint
        // per-worker sub-arenas split via `chunks_mut`.
        let workers = if threads > 1 && n * m >= PARALLEL_MIN_CELLS { threads } else { 1 };
        let chunk_len = m.div_ceil(workers);
        let nw = m.div_ceil(chunk_len);
        let mut active_ids: Vec<u32> = Vec::new();
        let mut totals: Vec<u32> = Vec::new();
        let mut slot_of_node: Vec<u32> = Vec::new();
        let mut left_arena: Vec<u32> = Vec::new();
        let mut pending_arena: Vec<u32> = Vec::new();
        let mut meta_arena: Vec<NodeScan> = Vec::new();
        let mut best_arena: Vec<Option<BestSplit>> = Vec::new();
        let mut scanned = vec![0u64; nw];
        let (mut pool_hits, mut scan_rows) = (0u64, 0u64);

        // The frontier holds the nodes the previous level created, all
        // at depth `depth`.
        let mut frontier = 0..1;
        for depth in 0.. {
            active_ids.clear();
            totals.clear();
            for nid in frontier {
                let counts = &nodes[nid].counts;
                let total: u32 = counts.iter().sum();
                let impurity = p.criterion.impurity(counts, total);
                let stop = impurity == 0.0 || depth >= p.max_depth || total < p.min_samples_split;
                if !stop {
                    active_ids.push(nid as u32);
                    totals.push(total);
                }
            }
            if active_ids.is_empty() {
                break;
            }
            let n_active = active_ids.len();
            slot_of_node.clear();
            slot_of_node.resize(nodes.len(), u32::MAX);
            for (slot, &nid) in active_ids.iter().enumerate() {
                slot_of_node[nid as usize] = slot as u32;
            }
            reuse_arena(&mut left_arena, nw * n_active * k, 0, &mut pool_hits);
            reuse_arena(&mut pending_arena, nw * n_active * k, 0, &mut pool_hits);
            reuse_arena(&mut meta_arena, nw * n_active, NodeScan::EMPTY, &mut pool_hits);
            reuse_arena(&mut best_arena, nw * n_active, None, &mut pool_hits);

            // Scan each attribute once, one worker per contiguous
            // ascending attribute range, each confined to its own arena
            // slices. A single worker runs inline.
            let level = Level {
                d,
                p: &p,
                orders: &orders,
                node_of_row: &node_of_row,
                slot_of_node: &slot_of_node,
                nodes: &nodes,
                totals: &totals,
                active_ids: &active_ids,
            };
            let arenas = left_arena
                .chunks_mut(n_active * k)
                .zip(pending_arena.chunks_mut(n_active * k))
                .zip(meta_arena.chunks_mut(n_active))
                .zip(best_arena.chunks_mut(n_active))
                .zip(scanned.iter_mut())
                .enumerate();
            let result = crossbeam::thread::scope(|scope| {
                for (t, ((((left, pending), meta), best), count)) in arenas {
                    let attrs = t * chunk_len..((t + 1) * chunk_len).min(m);
                    let level = &level;
                    let scan = move || *count = level.scan(attrs, left, pending, meta, best);
                    if nw == 1 {
                        scan();
                    } else {
                        scope.spawn(move |_| scan());
                    }
                }
            });
            if let Err(payload) = result {
                // `fit` is a panicking API: surface the payload (e.g. a
                // NaN value assertion) unchanged on this thread.
                std::panic::resume_unwind(payload);
            }
            scan_rows += scanned.iter().sum::<u64>();

            // Serial reduction: merge the per-worker winners in
            // ascending attribute-range order with the same strict `<`
            // (the serial attr-major first-wins order), and give every
            // accepted split its two children.
            let next = nodes.len();
            for (slot, &nid) in active_ids.iter().enumerate() {
                let mut best: Option<BestSplit> = None;
                for cand in best_arena[slot..].iter().step_by(n_active).flatten() {
                    if best.as_ref().is_none_or(|b| cand.score < b.score) {
                        best = Some(*cand);
                    }
                }
                let impurity = p.criterion.impurity(&nodes[nid as usize].counts, totals[slot]);
                if let Some(split) = best.filter(|b| impurity - b.score > p.min_impurity_decrease) {
                    let left = nodes.len();
                    nodes[nid as usize].split = Some((split, left));
                    for _ in 0..2 {
                        nodes.push(WorkNode { counts: vec![0; k], split: None });
                    }
                }
            }
            // Rows only ever sit in frontier nodes or leaves, so a node
            // with a split here is one that split on this level.
            for (row, slot) in node_of_row.iter_mut().enumerate() {
                if let Some((split, left)) = nodes[*slot as usize].split {
                    let child =
                        if d.value(row, split.attr) <= split.left_value { left } else { left + 1 };
                    *slot = child as u32;
                    nodes[child].counts[d.label(row).index()] += 1;
                }
            }
            frontier = next..nodes.len();
        }

        ppdt_obs::add(ppdt_obs::Counter::SplitScanRows, scan_rows);
        ppdt_obs::add(ppdt_obs::Counter::PoolReuseHits, pool_hits);
        DecisionTree {
            root: materialize(&nodes, 0, p.threshold_policy),
            num_classes: k,
            criterion: p.criterion,
        }
    }

    /// Forwards to [`fit`](TreeBuilder::fit). Kept only because the
    /// repository benchmark (`perfbench/`) calls it; the next change to
    /// the benchmark removes it.
    pub fn fit_presorted(&self, d: &Dataset) -> DecisionTree {
        self.fit(d)
    }
}

/// A node of the tree being grown: its class histogram and, once
/// accepted, its split and the id of its left child (the right child
/// is the next id).
struct WorkNode {
    counts: Vec<u32>,
    split: Option<(BestSplit, usize)>,
}

/// Split-search state for one active node while scanning one
/// attribute's sorted order. `Copy` so a level's states live in one
/// flat arena refilled with `slice::fill` — no per-node allocation.
/// The class histograms live in separate flat arenas indexed by the
/// same slot.
#[derive(Clone, Copy)]
struct NodeScan {
    /// Rows seen so far.
    left_n: u32,
    /// Value of the group currently being consumed.
    cur_value: f64,
    /// Single label of the current group, while it is monochromatic.
    cur_mono: Option<ClassId>,
    /// Whether any row has been seen.
    started: bool,
    /// Pending boundary between the previous and current group,
    /// evaluable once the current group completes (the boundary's
    /// right-group mono status is `cur_mono` at that moment).
    pending: Option<PendingMeta>,
}

impl NodeScan {
    const EMPTY: NodeScan =
        NodeScan { left_n: 0, cur_value: f64::NAN, cur_mono: None, started: false, pending: None };
}

/// A pending boundary's scalar state; its left-histogram snapshot
/// lives in the pending arena at the node's slot.
#[derive(Clone, Copy)]
struct PendingMeta {
    /// Rows on the left of the boundary.
    left_n: u32,
    /// Largest value on the left.
    left_value: f64,
    /// Smallest value on the right.
    right_value: f64,
    /// Mono label of the group left of the boundary.
    left_group_mono: Option<ClassId>,
}

/// Best split found for a node so far (attr-major, then boundary-major
/// first-wins tie-breaking, matching `best_split_sorted`).
#[derive(Clone, Copy)]
struct BestSplit {
    attr: AttrId,
    score: f64,
    left_value: f64,
    right_value: f64,
}

/// Clears and refills a reusable arena, counting a pool hit when the
/// existing capacity was enough (no fresh allocation).
fn reuse_arena<T: Copy>(arena: &mut Vec<T>, len: usize, fill: T, pool_hits: &mut u64) {
    if arena.capacity() >= len && !arena.is_empty() {
        *pool_hits += 1;
    }
    arena.clear();
    arena.resize(len, fill);
}

/// What every worker reads during one level's scan.
struct Level<'a> {
    d: &'a Dataset,
    p: &'a TreeParams,
    orders: &'a [Vec<u32>],
    node_of_row: &'a [u32],
    slot_of_node: &'a [u32],
    nodes: &'a [WorkNode],
    totals: &'a [u32],
    active_ids: &'a [u32],
}

impl Level<'_> {
    /// One worker's share of a level: every attribute in `attrs`
    /// (ascending), dispatching each presorted row to its node's slot
    /// and maintaining the incremental group/boundary state in the
    /// worker's arena slices. Returns the number of `(row, attribute)`
    /// visits performed.
    fn scan(
        &self,
        attrs: Range<usize>,
        left: &mut [u32],
        pending_left: &mut [u32],
        meta: &mut [NodeScan],
        best: &mut [Option<BestSplit>],
    ) -> u64 {
        let (d, p) = (self.d, self.p);
        let k = d.num_classes();
        let mut right_buf = Vec::with_capacity(k);
        let mut scanned = 0u64;
        for a in attrs {
            let attr = AttrId(a);
            let col = d.column(attr);
            left.fill(0);
            meta.fill(NodeScan::EMPTY);

            for &row in &self.orders[a] {
                let nid = self.node_of_row[row as usize] as usize;
                let slot = self.slot_of_node[nid];
                if slot == u32::MAX {
                    continue;
                }
                let slot = slot as usize;
                scanned += 1;
                let v = col[row as usize];
                let c = d.label(row as usize);
                let hist = slot * k..(slot + 1) * k;
                let st = &mut meta[slot];

                if st.started && v != st.cur_value {
                    // The current group just completed: its mono status
                    // is final, so the pending boundary (to its left) is
                    // now evaluable.
                    if let Some(pm) = st.pending.take() {
                        score_boundary(
                            &pending_left[hist.clone()],
                            &pm,
                            st.cur_mono,
                            &self.nodes[nid].counts,
                            self.totals[slot],
                            p,
                            attr,
                            &mut best[slot],
                            &mut right_buf,
                        );
                    }
                    // The boundary after the completed group becomes
                    // pending; snapshot the left histogram at this point.
                    pending_left[hist.clone()].copy_from_slice(&left[hist.clone()]);
                    st.pending = Some(PendingMeta {
                        left_n: st.left_n,
                        left_value: st.cur_value,
                        right_value: v,
                        left_group_mono: st.cur_mono,
                    });
                    st.cur_value = v;
                    st.cur_mono = Some(c);
                } else if !st.started {
                    st.started = true;
                    st.cur_value = v;
                    st.cur_mono = Some(c);
                } else if st.cur_mono != Some(c) {
                    st.cur_mono = None;
                }

                left[slot * k + c.index()] += 1;
                st.left_n += 1;
            }

            // Scan end: each node's last pending boundary is evaluable
            // (its right group — the node's final group — has completed).
            for (slot, st) in meta.iter_mut().enumerate() {
                if let Some(pm) = st.pending.take() {
                    let nid = self.active_ids[slot] as usize;
                    score_boundary(
                        &pending_left[slot * k..(slot + 1) * k],
                        &pm,
                        st.cur_mono,
                        &self.nodes[nid].counts,
                        self.totals[slot],
                        p,
                        attr,
                        &mut best[slot],
                        &mut right_buf,
                    );
                }
            }
        }
        scanned
    }
}

/// Scores one candidate boundary against the node's running best,
/// replicating `best_split_sorted`'s candidate filter and strict
/// first-wins tie-breaking (boundaries arrive in order; attributes in
/// order within each worker; workers merge in order).
#[allow(clippy::too_many_arguments)]
fn score_boundary(
    pending_left: &[u32],
    pm: &PendingMeta,
    right_group_mono: Option<ClassId>,
    node_counts: &[u32],
    total: u32,
    p: &TreeParams,
    attr: AttrId,
    best: &mut Option<BestSplit>,
    right_buf: &mut Vec<u32>,
) {
    let inside_run = match p.candidate_policy {
        CandidatePolicy::AllBoundaries => false,
        CandidatePolicy::RunBoundaries => {
            matches!((pm.left_group_mono, right_group_mono), (Some(a), Some(b)) if a == b)
        }
    };
    let left_n = pm.left_n;
    let right_n = total - left_n;
    if inside_run || left_n < p.min_samples_leaf || right_n < p.min_samples_leaf {
        return;
    }
    right_buf.clear();
    right_buf.extend(node_counts.iter().zip(pending_left).map(|(&t, &l)| t - l));
    let score = p.criterion.boundary_score(pending_left, left_n, right_buf, right_n);
    if best.as_ref().is_none_or(|b| score < b.score) {
        *best =
            Some(BestSplit { attr, score, left_value: pm.left_value, right_value: pm.right_value });
    }
}

/// Turns the grown nodes into the public tree, starting at node `id`.
/// A leaf predicts its majority class (the first on count ties).
fn materialize(nodes: &[WorkNode], id: usize, policy: ThresholdPolicy) -> Node {
    let node = &nodes[id];
    let class_counts = node.counts.clone();
    match node.split {
        Some((split, left)) => Node::Split {
            attr: split.attr,
            threshold: match policy {
                ThresholdPolicy::DataValue => split.left_value,
                ThresholdPolicy::Midpoint => 0.5 * (split.left_value + split.right_value),
            },
            class_counts,
            left: Box::new(materialize(nodes, left, policy)),
            right: Box::new(materialize(nodes, left + 1, policy)),
        },
        None => {
            let mut label = 0usize;
            for (i, &c) in node.counts.iter().enumerate() {
                if c > node.counts[label] {
                    label = i;
                }
            }
            Node::Leaf { label: ClassId(label as u16), class_counts }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdt_data::gen::figure1;
    use ppdt_data::{DatasetBuilder, Schema};

    #[test]
    fn fits_figure1_exactly() {
        let d = figure1();
        let t = TreeBuilder::default().fit(&d);
        // The tree must classify its own training data perfectly: the
        // data is separable (no contradictory duplicate tuples).
        assert_eq!(t.accuracy(&d), 1.0);
        assert!(t.depth() >= 1);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        for v in 0..10 {
            b.push_row(&[v as f64], ClassId(0));
        }
        let d = b.build();
        let t = TreeBuilder::default().fit(&d);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.predict(&[3.0]), ClassId(0));
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let d = figure1();
        let params = TreeParams { max_depth: 0, ..Default::default() };
        let t = TreeBuilder::new(params).fit(&d);
        assert_eq!(t.num_nodes(), 1);
        // 4 High vs 2 Low -> predicts High everywhere.
        assert_eq!(t.predict(&[0.0, 0.0]), ClassId(0));
    }

    #[test]
    fn min_samples_leaf_bounds_leaf_sizes() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        for v in 0..40 {
            b.push_row(&[v as f64], ClassId((v % 2) as u16));
        }
        let d = b.build();
        let params = TreeParams { min_samples_leaf: 8, ..Default::default() };
        let t = TreeBuilder::new(params).fit(&d);
        for p in t.paths() {
            assert!(p.count >= 8, "leaf with {} tuples", p.count);
        }
    }

    #[test]
    fn threshold_policies_differ_but_agree_on_predictions() {
        let d = figure1();
        let t1 = TreeBuilder::new(TreeParams {
            threshold_policy: ThresholdPolicy::DataValue,
            ..Default::default()
        })
        .fit(&d);
        let t2 = TreeBuilder::new(TreeParams {
            threshold_policy: ThresholdPolicy::Midpoint,
            ..Default::default()
        })
        .fit(&d);
        // Training-data predictions agree (both thresholds separate the
        // same two data values).
        assert_eq!(t1.accuracy(&d), 1.0);
        assert_eq!(t2.accuracy(&d), 1.0);
    }

    #[test]
    fn inseparable_duplicates_terminate() {
        // Identical tuples with conflicting labels: impurity can never
        // reach 0 and no split exists; the builder must terminate.
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        for _ in 0..5 {
            b.push_row(&[1.0], ClassId(0));
            b.push_row(&[1.0], ClassId(1));
        }
        let d = b.build();
        let t = TreeBuilder::default().fit(&d);
        assert_eq!(t.num_nodes(), 1);
    }

    #[test]
    fn entropy_criterion_builds_consistent_tree() {
        let d = figure1();
        let t = TreeBuilder::new(TreeParams::with_criterion(SplitCriterion::Entropy)).fit(&d);
        assert_eq!(t.accuracy(&d), 1.0);
        assert_eq!(t.criterion, SplitCriterion::Entropy);
    }

    #[test]
    fn min_impurity_decrease_prunes_weak_splits() {
        let schema = Schema::generated(1, 2);
        let mut b = DatasetBuilder::new(schema);
        // 9 of class 0 on the left, then a mixed zone: a weak split.
        for v in 0..9 {
            b.push_row(&[v as f64], ClassId(0));
        }
        for v in 9..13 {
            b.push_row(&[v as f64], ClassId((v % 2) as u16));
        }
        let d = b.build();
        let strict = TreeParams { min_impurity_decrease: 0.45, ..Default::default() };
        let t = TreeBuilder::new(strict).fit(&d);
        assert_eq!(t.num_nodes(), 1, "weak splits rejected");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = ppdt_data::Dataset::from_columns(Schema::generated(1, 2), vec![vec![]], vec![]);
        let _ = TreeBuilder::default().fit(&d);
    }

    #[test]
    fn deterministic_rebuild() {
        let d = figure1();
        let t1 = TreeBuilder::default().fit(&d);
        let t2 = TreeBuilder::default().fit(&d);
        assert_eq!(t1, t2);
    }
}
