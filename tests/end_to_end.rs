//! Cross-crate integration tests: the full custodian pipeline
//! (generate → encode → mine → decode → compare) across datasets,
//! strategies, criteria and threshold policies.

use ppdt::data::gen::{
    census_like, covertype_like, figure1, random_dataset, wdbc_like, CovertypeConfig,
    RandomDatasetConfig,
};
use ppdt::prelude::*;
use ppdt::transform::verify::all_class_strings_preserved;
use ppdt::tree::prune_pessimistic;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn strategies() -> [BreakpointStrategy; 3] {
    [
        BreakpointStrategy::None,
        BreakpointStrategy::ChooseBP { w: 10 },
        BreakpointStrategy::ChooseMaxMP { w: 10, min_piece_len: 2 },
    ]
}

#[test]
fn pipeline_exact_on_every_generator() {
    let mut rng = StdRng::seed_from_u64(1);
    let datasets = [
        figure1(),
        census_like(&mut rng, 800),
        wdbc_like(&mut rng, 400),
        covertype_like(&mut rng, &CovertypeConfig { num_rows: 2_000, ..Default::default() }),
    ];
    for (i, d) in datasets.iter().enumerate() {
        for strategy in strategies() {
            for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
                let config = EncodeConfig { strategy, ..Default::default() };
                let params = TreeParams { criterion, min_samples_leaf: 2, ..Default::default() };
                let (key, d2) =
                    Encoder::new(config).encode(&mut rng, d).expect("encode").into_parts();
                assert!(all_class_strings_preserved(d, &d2, &key), "ds {i} {strategy:?}");
                let builder = TreeBuilder::new(params);
                let t = builder.fit(d);
                let t2 = builder.fit(&d2);
                let s = key.decode_tree(&t2, params.threshold_policy, d).expect("decode");
                assert!(
                    trees_equal(&s, &t),
                    "ds {i} {strategy:?} {criterion:?}: {:?}",
                    ppdt::tree::tree_diff(&s, &t, 0.0)
                );
                // Structure statistics agree by construction.
                assert_eq!(t.num_leaves(), t2.num_leaves());
                assert_eq!(t.depth(), t2.depth());
            }
        }
    }
}

#[test]
fn midpoint_policy_pipeline_exact() {
    let mut rng = StdRng::seed_from_u64(2);
    let d = census_like(&mut rng, 600);
    let params = TreeParams {
        threshold_policy: ThresholdPolicy::Midpoint,
        min_samples_leaf: 3,
        ..Default::default()
    };
    for strategy in strategies() {
        let config = EncodeConfig { strategy, ..Default::default() };
        let (key, d2) = Encoder::new(config).encode(&mut rng, &d).expect("encode").into_parts();
        let builder = TreeBuilder::new(params);
        let t = builder.fit(&d);
        let t2 = builder.fit(&d2);
        let s = key.decode_tree(&t2, ThresholdPolicy::Midpoint, &d).expect("decode");
        assert!(trees_equal(&s, &t), "{strategy:?}: {:?}", ppdt::tree::tree_diff(&s, &t, 0.0));
    }
}

#[test]
fn pruning_commutes_with_decoding() {
    let mut rng = StdRng::seed_from_u64(3);
    let cfg = RandomDatasetConfig { num_rows: 400, num_attrs: 3, num_classes: 2, value_range: 40 };
    for _ in 0..5 {
        let d = random_dataset(&mut rng, &cfg);
        let (key, d2) = Encoder::new(EncodeConfig::default())
            .encode(&mut rng, &d)
            .expect("encode")
            .into_parts();
        let builder = TreeBuilder::default();
        // prune(decode(T')) == prune(T): pruning is count-based.
        let pruned_direct = prune_pessimistic(&builder.fit(&d), 0.25);
        let pruned_decoded = prune_pessimistic(
            &key.decode_tree(&builder.fit(&d2), ThresholdPolicy::DataValue, &d).expect("decode"),
            0.25,
        );
        assert!(trees_equal(&pruned_direct, &pruned_decoded));
    }
}

#[test]
fn verified_encode_with_anti_monotone_directions() {
    let mut rng = StdRng::seed_from_u64(4);
    let d = wdbc_like(&mut rng, 300);
    let config = EncodeConfig { anti_monotone_prob: 1.0, ..Default::default() };
    let params = TreeParams::default();
    let encoded =
        Encoder::new(config).verify_with(params).encode(&mut rng, &d).expect("verified encode");
    let (key, d2, attempts) = (encoded.key, encoded.dataset, encoded.attempts);
    assert!(attempts >= 1);
    let builder = TreeBuilder::new(params);
    let s = key.decode_tree(&builder.fit(&d2), params.threshold_policy, &d).expect("decode");
    assert!(trees_equal(&s, &builder.fit(&d)));
}

#[test]
fn key_survives_json_roundtrip_and_still_decodes() {
    let mut rng = StdRng::seed_from_u64(5);
    let d = census_like(&mut rng, 500);
    let (key, d2) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    let json = serde_json::to_string(&key).expect("serialize key");
    let key2: TransformKey = serde_json::from_str(&json).expect("deserialize key");
    assert_eq!(key, key2);
    let builder = TreeBuilder::default();
    let t2 = builder.fit(&d2);
    let s = key2.decode_tree(&t2, ThresholdPolicy::DataValue, &d).expect("decode");
    assert!(trees_equal(&s, &builder.fit(&d)));
}

#[test]
fn predictions_through_the_key_match_on_unseen_tuples() {
    // The decoded tree and the mined tree agree on arbitrary inputs
    // when the input is encoded first: predict_T'(f(x)) == predict_S(x).
    let mut rng = StdRng::seed_from_u64(6);
    let d = census_like(&mut rng, 700);
    let (key, d2) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    let builder = TreeBuilder::default();
    let t2 = builder.fit(&d2);
    let s = key.decode_tree(&t2, ThresholdPolicy::DataValue, &d).expect("decode");
    // Use the training tuples themselves as the "query" set (their
    // encodings are defined; arbitrary reals would not be, because
    // permutation pieces are defined on the active domain only).
    let mut enc = vec![0.0; d.num_attrs()];
    let mut raw = vec![0.0; d.num_attrs()];
    for row in 0..d.num_rows() {
        for a in d.schema().attrs() {
            raw[a.index()] = d.value(row, a);
            enc[a.index()] = d2.value(row, a);
        }
        assert_eq!(t2.predict(&enc), s.predict(&raw), "row {row}");
    }
}

#[test]
fn feature_importance_is_invariant_under_the_transform() {
    // Importance is a pure function of the tree's class histograms, so
    // the custodian's analyst sees identical scores whether computed
    // on the decoded tree or the directly mined one — and even the
    // *mined* (still encoded) tree agrees, since decoding changes only
    // threshold values.
    use ppdt::tree::feature_importance;
    let mut rng = StdRng::seed_from_u64(8);
    let d = census_like(&mut rng, 1_000);
    let (key, d2) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    let builder = TreeBuilder::default();
    let t = builder.fit(&d);
    let t2 = builder.fit(&d2);
    let s = key.decode_tree(&t2, ThresholdPolicy::DataValue, &d).expect("decode");
    let m = d.num_attrs();
    assert_eq!(feature_importance(&t, m), feature_importance(&s, m));
    assert_eq!(feature_importance(&t, m), feature_importance(&t2, m));
}

#[test]
fn every_single_value_is_transformed() {
    // Section 1's contrast with perturbation: the transformation
    // changes every value.
    let mut rng = StdRng::seed_from_u64(7);
    let d = covertype_like(&mut rng, &CovertypeConfig { num_rows: 1_500, ..Default::default() });
    let (_, d2) =
        Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).expect("encode").into_parts();
    for a in d.schema().attrs() {
        let same = d.column(a).iter().zip(d2.column(a)).filter(|(x, y)| x == y).count();
        assert_eq!(same, 0, "attr {a}: {same} values unchanged");
    }
}
