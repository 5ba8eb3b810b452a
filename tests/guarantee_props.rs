//! Property-based integration tests of the paper's guarantees, driven
//! by proptest over dataset shapes, strategies and tree parameters.

use ppdt::data::gen::{random_dataset, RandomDatasetConfig};
use ppdt::prelude::*;
use ppdt::transform::verify::all_class_strings_preserved;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn strategy_from(tag: u8, w: usize, min_len: usize) -> BreakpointStrategy {
    match tag % 3 {
        0 => BreakpointStrategy::None,
        1 => BreakpointStrategy::ChooseBP { w },
        _ => BreakpointStrategy::ChooseMaxMP { w, min_piece_len: min_len },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Theorem 2, fuzzed at the workspace level: for any dataset shape,
    /// breakpoint strategy and split criterion (monotone directions),
    /// the decoded tree equals the directly mined tree bit-exactly.
    #[test]
    fn no_outcome_change_holds(
        seed in 0u64..10_000,
        rows in 20usize..200,
        attrs in 1usize..4,
        classes in 2usize..4,
        range in 3u64..60,
        strat_tag in 0u8..3,
        w in 1usize..12,
        min_len in 1usize..4,
        gini in any::<bool>(),
        midpoint in any::<bool>(),
        min_leaf in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDatasetConfig {
            num_rows: rows,
            num_attrs: attrs,
            num_classes: classes,
            value_range: range,
        };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            strategy: strategy_from(strat_tag, w, min_len),
            ..Default::default()
        };
        let params = TreeParams {
            criterion: if gini { SplitCriterion::Gini } else { SplitCriterion::Entropy },
            threshold_policy: if midpoint { ThresholdPolicy::Midpoint } else { ThresholdPolicy::DataValue },
            min_samples_leaf: min_leaf,
            ..Default::default()
        };
        let (key, d2) = Encoder::new(config).encode(&mut rng, &d).expect("encode").into_parts();
        prop_assert!(all_class_strings_preserved(&d, &d2, &key));

        let builder = TreeBuilder::new(params);
        let t = builder.fit(&d);
        let t2 = builder.fit(&d2);
        let s = key.decode_tree(&t2, params.threshold_policy, &d).expect("decode tree");
        prop_assert!(
            trees_equal(&s, &t),
            "diff: {:?}",
            ppdt::tree::tree_diff(&s, &t, 0.0)
        );
    }

    /// Encode/decode round-trip over the whole active domain: exact
    /// for every value appearing in the data, for any strategy.
    #[test]
    fn value_roundtrip_exact(
        seed in 0u64..10_000,
        rows in 10usize..150,
        range in 2u64..80,
        strat_tag in 0u8..3,
        w in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDatasetConfig {
            num_rows: rows,
            num_attrs: 2,
            num_classes: 2,
            value_range: range,
        };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            strategy: strategy_from(strat_tag, w, 1),
            anti_monotone_prob: 0.5, // round-trips hold either way
            ..Default::default()
        };
        let (key, _) = Encoder::new(config).encode(&mut rng, &d).expect("encode").into_parts();
        for a in d.schema().attrs() {
            for &x in &d.active_domain(a) {
                let y = key.encode_value(a, x).expect("in-domain value");
                prop_assert!(y.is_finite());
                prop_assert_eq!(key.decode_value(a, y).expect("decode"), x);
            }
        }
    }

    /// The transform is injective on each attribute's active domain
    /// (distinct originals get distinct encodings) and order across
    /// pieces respects the global direction.
    #[test]
    fn transform_injective_and_directed(
        seed in 0u64..10_000,
        rows in 10usize..150,
        range in 2u64..60,
        anti in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDatasetConfig {
            num_rows: rows,
            num_attrs: 1,
            num_classes: 3,
            value_range: range,
        };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            anti_monotone_prob: if anti { 1.0 } else { 0.0 },
            ..Default::default()
        };
        let (key, _) = Encoder::new(config).encode(&mut rng, &d).expect("encode").into_parts();
        let a = AttrId(0);
        let tr = key.transform(a);
        prop_assert_eq!(tr.increasing, !anti);
        prop_assert_eq!(tr.validate(), Ok(()));

        // Across pieces (here: across any two values in different
        // pieces) the global direction must hold.
        let domain = d.active_domain(a);
        let encoded: Vec<f64> =
            domain.iter().map(|&x| tr.encode(x).expect("in-domain value")).collect();
        let mut sorted = encoded.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        prop_assert_eq!(sorted.len(), encoded.len(), "injectivity");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Deviation 3, certified: on tie-heavy tables (few distinct
    /// values, every attribute anti-monotone) the decode replay's
    /// certificate flags exactly the decodes that differ from the
    /// directly mined tree, and the verified encoder always ends at a
    /// key whose decode is exact.
    #[test]
    fn certificate_flags_every_anti_monotone_tie(
        seed in 0u64..10_000,
        rows in 8usize..120,
        attrs in 1usize..4,
        classes in 2usize..4,
        range in 2u64..11,
        strat_tag in 0u8..3,
        w in 1usize..8,
        gini in any::<bool>(),
        midpoint in any::<bool>(),
        min_leaf in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = RandomDatasetConfig {
            num_rows: rows,
            num_attrs: attrs,
            num_classes: classes,
            value_range: range,
        };
        let d = random_dataset(&mut rng, &cfg);
        let config = EncodeConfig {
            strategy: strategy_from(strat_tag, w, 1),
            anti_monotone_prob: 1.0,
            ..Default::default()
        };
        let params = TreeParams {
            criterion: if gini { SplitCriterion::Gini } else { SplitCriterion::Entropy },
            threshold_policy: if midpoint { ThresholdPolicy::Midpoint } else { ThresholdPolicy::DataValue },
            min_samples_leaf: min_leaf,
            ..Default::default()
        };
        let builder = TreeBuilder::new(params);
        let t = builder.fit(&d);

        let (key, d2) = Encoder::new(config).encode(&mut rng, &d).expect("encode").into_parts();
        let (s, cert) =
            key.decode_tree_certified(&builder.fit(&d2), &params, &d).expect("decode tree");
        let diff = ppdt::tree::tree_diff(&s, &t, 0.0);
        if cert.flags.is_empty() {
            prop_assert!(diff.is_none(), "unflagged decode differs: {:?}", diff);
        }
        if diff.is_some() {
            prop_assert!(!cert.flags.is_empty(), "differing decode carries no flag: {:?}", diff);
        }
        // A flag with no flagged ancestor is never a false alarm.
        prop_assert_eq!(cert.attrs_to_redraw().is_empty(), diff.is_none());

        let e = Encoder::new(config).verify_with(params).encode(&mut rng, &d).expect("verify");
        prop_assert!(e.attempts <= 1 + attrs);
        let s = e.key.decode_tree(&builder.fit(&e.dataset), params.threshold_policy, &d)
            .expect("decode tree");
        prop_assert!(trees_equal(&s, &t), "diff: {:?}", ppdt::tree::tree_diff(&s, &t, 0.0));
    }
}
