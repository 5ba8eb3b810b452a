//! `TreeBuilder::fit` against a reference: the textbook recursive
//! builder, serial, written below on the public `best_split_sorted`.
//! The trees must be equal bit for bit (same nodes, thresholds and
//! histograms) for every criterion, threshold policy and stopping rule,
//! and at every thread count, because each worker of `fit`'s level scan
//! covers a contiguous ascending attribute range and the serial
//! reduction re-applies the attr-major first-wins tie-break with the
//! same strict `<`. Mirror of `crates/transform/tests/parallel_serial.rs`.

use ppdt_data::gen::{census_like, figure1, random_dataset, RandomDatasetConfig};
use ppdt_data::{AttrId, ClassId, Dataset};
use ppdt_tree::split::{best_split_sorted, AttrSplit};
use ppdt_tree::{
    tree_diff, trees_equal, DecisionTree, Node, SplitCriterion, ThresholdPolicy, TreeBuilder,
    TreeParams,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts under test: serial, the smallest genuine fan-out, and
/// more workers than most datasets have attributes (exercises range
/// clamping).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The greedy construction of the paper's Section 4, kept as the
/// oracle `fit` must equal: at each node, sort the node's tuples on
/// every attribute, take the best boundary that `best_split_sorted`
/// finds (the first attribute wins exact score ties), and recurse.
/// No threads, pools or counters.
fn reference_fit(d: &Dataset, p: &TreeParams) -> DecisionTree {
    let rows: Vec<usize> = (0..d.num_rows()).collect();
    let root = reference_grow(d, p, rows, 0);
    DecisionTree { root, num_classes: d.num_classes(), criterion: p.criterion }
}

fn reference_grow(d: &Dataset, p: &TreeParams, rows: Vec<usize>, depth: usize) -> Node {
    let mut counts = vec![0u32; d.num_classes()];
    for &r in &rows {
        counts[d.label(r).index()] += 1;
    }
    let total = rows.len() as u32;
    let impurity = p.criterion.impurity(&counts, total);
    let stop = impurity == 0.0 || depth >= p.max_depth || total < p.min_samples_split;
    let best = if stop { None } else { reference_best_split(d, p, &rows) };
    match best.filter(|(_, s)| impurity - s.score > p.min_impurity_decrease) {
        Some((attr, s)) => {
            let (left, right) = rows.into_iter().partition(|&r| d.value(r, attr) <= s.left_value);
            Node::Split {
                attr,
                threshold: match p.threshold_policy {
                    ThresholdPolicy::DataValue => s.left_value,
                    ThresholdPolicy::Midpoint => 0.5 * (s.left_value + s.right_value),
                },
                class_counts: counts,
                left: Box::new(reference_grow(d, p, left, depth + 1)),
                right: Box::new(reference_grow(d, p, right, depth + 1)),
            }
        }
        None => {
            let label = (0..counts.len()).fold(0, |b, i| if counts[i] > counts[b] { i } else { b });
            Node::Leaf { label: ClassId(label as u16), class_counts: counts }
        }
    }
}

fn reference_best_split(
    d: &Dataset,
    p: &TreeParams,
    rows: &[usize],
) -> Option<(AttrId, AttrSplit)> {
    let mut best: Option<(AttrId, AttrSplit)> = None;
    for a in 0..d.num_attrs() {
        let col = d.column(AttrId(a));
        let mut pairs: Vec<(f64, ClassId)> = rows.iter().map(|&r| (col[r], d.label(r))).collect();
        pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
        let split = best_split_sorted(
            &pairs,
            d.num_classes(),
            p.criterion,
            p.candidate_policy,
            p.min_samples_leaf,
        );
        if let Some(s) = split.filter(|s| best.is_none_or(|(_, b)| s.score < b.score)) {
            best = Some((AttrId(a), s));
        }
    }
    best
}

fn assert_matches_reference(d: &Dataset, params: TreeParams, label: &str) {
    let reference = reference_fit(d, &params);
    for threads in THREAD_COUNTS {
        let fit = TreeBuilder::new(params).with_threads(Some(threads)).fit(d);
        assert!(
            trees_equal(&reference, &fit),
            "{label}: fit at {threads} threads differs from the reference: {:?}",
            tree_diff(&reference, &fit, 0.0)
        );
    }
}

/// Every criterion × threshold policy on one table, with
/// `min_samples_leaf` 1–3 by trial.
fn assert_matches_reference_on_every_policy(d: &Dataset, trial: usize) {
    for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
        for policy in [ThresholdPolicy::DataValue, ThresholdPolicy::Midpoint] {
            let params = TreeParams {
                criterion,
                threshold_policy: policy,
                min_samples_leaf: 1 + (trial as u32) % 3,
                ..Default::default()
            };
            assert_matches_reference(d, params, &format!("trial {trial} {criterion:?} {policy:?}"));
        }
    }
}

#[test]
fn fit_matches_reference_on_figure1() {
    assert_matches_reference(&figure1(), TreeParams::default(), "figure1");
}

#[test]
fn fit_matches_reference_on_small_random_tables() {
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..30 {
        let cfg = RandomDatasetConfig {
            num_rows: 50 + trial * 7,
            num_attrs: 1 + trial % 4,
            num_classes: 2 + trial % 3,
            value_range: 3 + (trial as u64 * 5) % 40,
        };
        assert_matches_reference_on_every_policy(&random_dataset(&mut rng, &cfg), trial);
    }
}

#[test]
fn fit_matches_reference_with_stopping_rules_on_census() {
    let mut rng = StdRng::seed_from_u64(2);
    let d = census_like(&mut rng, 1_200);
    for params in [
        TreeParams { max_depth: 3, ..Default::default() },
        TreeParams { min_samples_split: 50, ..Default::default() },
        TreeParams { min_impurity_decrease: 0.05, ..Default::default() },
        TreeParams { min_samples_leaf: 25, ..Default::default() },
    ] {
        assert_matches_reference(&d, params, &format!("{params:?}"));
    }
}

#[test]
fn parallel_matches_serial_on_seeded_random_datasets() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..6 {
        let cfg = RandomDatasetConfig {
            num_rows: 300 + trial * 150,
            num_attrs: 2 + trial % 5,
            num_classes: 2 + trial % 3,
            value_range: 5 + (trial as u64 * 7) % 30,
        };
        assert_matches_reference_on_every_policy(&random_dataset(&mut rng, &cfg), trial);
    }
}

#[test]
fn parallel_matches_serial_above_the_fanout_gate() {
    // Large enough (rows × attrs ≥ the internal parallel gate) that
    // multi-thread runs actually take the scoped-thread path rather
    // than falling back to the serial loop.
    let mut rng = StdRng::seed_from_u64(21);
    let d = census_like(&mut rng, 4_000);
    for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
        let params = TreeParams::with_criterion(criterion);
        assert_matches_reference(&d, params, &format!("census {criterion:?}"));
    }
}

#[test]
fn parallel_matches_serial_with_stopping_rules() {
    let mut rng = StdRng::seed_from_u64(31);
    let d = census_like(&mut rng, 2_500);
    for params in [
        TreeParams { max_depth: 4, ..Default::default() },
        TreeParams { min_samples_split: 40, ..Default::default() },
        TreeParams { min_impurity_decrease: 0.02, ..Default::default() },
        TreeParams { min_samples_leaf: 20, ..Default::default() },
    ] {
        assert_matches_reference(&d, params, &format!("{params:?}"));
    }
}

#[test]
fn ppdt_threads_env_override_does_not_change_the_tree() {
    // PPDT_THREADS is process-global; this is safe to run alongside
    // the other tests because they all pin their thread count, and
    // thread count never changes any output anyway — which is exactly
    // what this test demonstrates.
    let mut rng = StdRng::seed_from_u64(41);
    let d = census_like(&mut rng, 1_500);
    let reference = reference_fit(&d, &TreeParams::default());
    std::env::set_var("PPDT_THREADS", "3");
    let under_env = TreeBuilder::default().fit(&d);
    std::env::remove_var("PPDT_THREADS");
    let default = TreeBuilder::default().fit(&d);
    for (t, label) in [(&under_env, "PPDT_THREADS=3"), (&default, "default threads")] {
        assert!(trees_equal(&reference, t), "{label}: {:?}", tree_diff(&reference, t, 0.0));
    }
}
