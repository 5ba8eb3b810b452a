//! Verification of the paper's guarantees: Lemma 1 (class-string
//! preservation) and Theorems 1–2 (no outcome change).
//!
//! ## Ties and the class string
//!
//! Definition 6 orders equal values "in some canonical order". A
//! strictly monotone transformation maps tie groups to tie groups, so
//! under any fixed canonical order the class string is preserved
//! literally. Under an **anti-monotone** transformation the *group
//! order* reverses but each tie group is re-canonicalized, so the
//! literal string `σ_{A,D'}` equals `σ_{A,D}^R` only when every tie
//! group is monochromatic. Likewise a permutation on a monochromatic
//! piece may move tuple counts between the piece's distinct values
//! without changing any label. The invariant we verify is therefore
//! the canonical per-tuple class string — each tie group expanded in
//! ascending label order — preserved exactly (monotone) or reversed
//! group-wise (anti-monotone). This is precisely what the tree's
//! split search consumes.

use ppdt_error::PpdtError;
use rand::Rng;

use ppdt_data::{AttrId, Dataset};
use ppdt_tree::{tree_diff, TreeBuilder, TreeParams};

use crate::encoder::{EncodeConfig, Encoder, TransformKey};

/// The per-distinct-value class histograms of attribute `a`, in
/// ascending value order — the tie-robust form of the class string.
pub fn group_histograms(d: &Dataset, a: AttrId) -> Vec<Vec<u32>> {
    d.sorted_column(a).groups.into_iter().map(|g| g.hist).collect()
}

/// Expands group histograms into the canonical per-tuple class string
/// (labels within each tie group in ascending class order).
fn expand(hists: &[Vec<u32>]) -> Vec<u16> {
    let mut out = Vec::new();
    for h in hists {
        for (c, &n) in h.iter().enumerate() {
            out.extend(std::iter::repeat_n(c as u16, n as usize));
        }
    }
    out
}

/// Checks Lemma 1 for one attribute: the canonical class string of
/// `d2` equals that of `d` (when `increasing`) or its group-order
/// reversal (when not).
///
/// Note this is the per-*tuple* class string: within a monochromatic
/// piece a permutation may reorder which distinct value carries how
/// many tuples, but the label substring — all the tree ever sees —
/// stays constant.
pub fn class_strings_preserved(d: &Dataset, d2: &Dataset, a: AttrId, increasing: bool) -> bool {
    let h1 = group_histograms(d, a);
    let mut h2 = group_histograms(d2, a);
    if !increasing {
        h2.reverse();
    }
    expand(&h1) == expand(&h2)
}

/// Checks Lemma 1 for every attribute under `key`'s directions.
pub fn all_class_strings_preserved(d: &Dataset, d2: &Dataset, key: &TransformKey) -> bool {
    d.schema().attrs().all(|a| class_strings_preserved(d, d2, a, key.transform(a).increasing))
}

/// Outcome of a full no-outcome-change verification run.
#[derive(Clone, Debug)]
pub struct OutcomeReport {
    /// Lemma 1 held on every attribute.
    pub class_strings_ok: bool,
    /// The decoded tree equals the directly mined tree (Theorem 2).
    pub trees_equal: bool,
    /// Human-readable first difference, when `trees_equal` is false.
    pub first_diff: Option<String>,
    /// Leaves of the directly mined tree (sanity statistic).
    pub num_leaves: usize,
    /// Depth of the directly mined tree.
    pub depth: usize,
}

impl OutcomeReport {
    /// True iff every checked guarantee held.
    pub fn all_ok(&self) -> bool {
        self.class_strings_ok && self.trees_equal
    }
}

/// End-to-end Theorem 2 verification: encode `d`, mine both versions
/// with `params`, decode the mined tree with the key, compare.
pub fn no_outcome_change<R: Rng + ?Sized>(
    rng: &mut R,
    d: &Dataset,
    encode_config: &EncodeConfig,
    params: TreeParams,
) -> Result<OutcomeReport, PpdtError> {
    let (key, d2) = Encoder::new(*encode_config).encode(rng, d)?.into_parts();
    let class_strings_ok = all_class_strings_preserved(d, &d2, &key);

    let builder = TreeBuilder::new(params);
    let t = builder.fit(d);
    let t2 = builder.fit(&d2);
    let s = key.decode_tree(&t2, params.threshold_policy, d)?;
    let first_diff = tree_diff(&s, &t, 0.0);

    Ok(OutcomeReport {
        class_strings_ok,
        trees_equal: first_diff.is_none(),
        first_diff,
        num_leaves: t.num_leaves(),
        depth: t.depth(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointStrategy;
    use crate::family::FnFamily;
    use ppdt_data::gen::{census_like, figure1, random_dataset, wdbc_like, RandomDatasetConfig};
    use ppdt_data::{ClassId, DatasetBuilder, Schema};
    use ppdt_tree::{SplitCriterion, ThresholdPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn figure1_all_strategies_all_criteria() {
        let d = figure1();
        let mut rng = StdRng::seed_from_u64(1);
        for strat in [
            BreakpointStrategy::None,
            BreakpointStrategy::ChooseBP { w: 2 },
            BreakpointStrategy::ChooseMaxMP { w: 3, min_piece_len: 1 },
        ] {
            for crit in [SplitCriterion::Gini, SplitCriterion::Entropy] {
                for policy in [ThresholdPolicy::DataValue, ThresholdPolicy::Midpoint] {
                    let cfg = EncodeConfig { strategy: strat, ..Default::default() };
                    let params = TreeParams {
                        criterion: crit,
                        threshold_policy: policy,
                        ..Default::default()
                    };
                    let report = no_outcome_change(&mut rng, &d, &cfg, params).unwrap();
                    assert!(
                        report.all_ok(),
                        "{strat:?} {crit:?} {policy:?}: {:?}",
                        report.first_diff
                    );
                }
            }
        }
    }

    #[test]
    fn random_datasets_fuzz_no_outcome_change() {
        // The workhorse guarantee test: many random datasets with heavy
        // ties, random strategies and directions.
        let mut rng = StdRng::seed_from_u64(2);
        let cfg =
            RandomDatasetConfig { num_rows: 150, num_attrs: 3, num_classes: 3, value_range: 25 };
        for trial in 0..25 {
            let d = random_dataset(&mut rng, &cfg);
            let strat = match trial % 3 {
                0 => BreakpointStrategy::None,
                1 => BreakpointStrategy::ChooseBP { w: 1 + trial % 7 },
                _ => BreakpointStrategy::ChooseMaxMP { w: trial % 9, min_piece_len: 1 + trial % 3 },
            };
            let encode_config =
                EncodeConfig { strategy: strat, family: FnFamily::Mixed, ..Default::default() };
            let params = TreeParams {
                criterion: if trial % 2 == 0 {
                    SplitCriterion::Gini
                } else {
                    SplitCriterion::Entropy
                },
                ..Default::default()
            };
            let report = no_outcome_change(&mut rng, &d, &encode_config, params).unwrap();
            assert!(report.all_ok(), "trial {trial} ({strat:?}): {:?}", report.first_diff);
        }
    }

    #[test]
    fn anti_monotone_fuzz_with_verified_encode() {
        // Anti-monotone directions reverse the candidate-boundary
        // order, so exact metric ties can break differently; the
        // verified encoder certifies the decode and redraws the tied
        // attributes monotone (see the EncodeConfig docs). Heavy-tie
        // random data is the worst case.
        let mut rng = StdRng::seed_from_u64(20);
        let cfg =
            RandomDatasetConfig { num_rows: 120, num_attrs: 3, num_classes: 3, value_range: 20 };
        for trial in 0..10 {
            let d = random_dataset(&mut rng, &cfg);
            let encode_config = EncodeConfig {
                anti_monotone_prob: 1.0,
                strategy: BreakpointStrategy::ChooseMaxMP { w: 5, min_piece_len: 1 },
                ..Default::default()
            };
            let params = TreeParams::default();
            let encoded =
                Encoder::new(encode_config).verify_with(params).encode(&mut rng, &d).unwrap();
            let (key, d2, attempts) = (encoded.key, encoded.dataset, encoded.attempts);
            assert!((1..=1 + d.num_attrs()).contains(&attempts), "trial {trial}: {attempts}");
            let builder = TreeBuilder::new(params);
            let t = builder.fit(&d);
            let t2 = builder.fit(&d2);
            let s = key.decode_tree(&t2, params.threshold_policy, &d).unwrap();
            assert!(ppdt_tree::trees_equal(&s, &t), "trial {trial}: {:?}", tree_diff(&s, &t, 0.0));
        }
    }

    /// Deviation 3 at its smallest: one attribute, values 1–4
    /// labelled A B B A. The run boundaries after 1 and after 3 score
    /// the same bits under Gini and entropy, so the direct miner
    /// splits at 1 while an anti-monotone `D'` (seen as A B B A
    /// reversed) makes the decode split at 3.
    fn abba() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["a"], ["A", "B"]));
        for (v, c) in [(1.0, 0u16), (2.0, 1), (3.0, 1), (4.0, 0)] {
            b.push_row(&[v], ClassId(c));
        }
        b.build()
    }

    fn root_threshold(t: &ppdt_tree::DecisionTree) -> f64 {
        match t.root {
            ppdt_tree::Node::Split { threshold, .. } => threshold,
            ppdt_tree::Node::Leaf { .. } => panic!("root is a leaf"),
        }
    }

    #[test]
    fn anti_monotone_tie_is_flagged_and_verify_redraws_it_monotone() {
        use crate::encoder::TieFlag;
        let d = abba();
        let anti = EncodeConfig { anti_monotone_prob: 1.0, ..Default::default() };
        for criterion in [SplitCriterion::Gini, SplitCriterion::Entropy] {
            let params = TreeParams::with_criterion(criterion);
            let builder = TreeBuilder::new(params);
            let t = builder.fit(&d);
            assert_eq!(root_threshold(&t), 1.0, "{criterion:?}");

            // Every anti-monotone draw reverses the same tie: the
            // certificate flags the root each time, and the decode
            // differs from the direct tree exactly there.
            for seed in 0..6 {
                let mut rng = StdRng::seed_from_u64(seed);
                let (key, d2) = Encoder::new(anti).encode(&mut rng, &d).unwrap().into_parts();
                assert!(!key.transform(AttrId(0)).increasing);
                let (s, cert) = key.decode_tree_certified(&builder.fit(&d2), &params, &d).unwrap();
                let root = TieFlag { node: 0, attr: AttrId(0), below_flag: false };
                assert_eq!(cert.flags, vec![root], "{criterion:?} seed {seed}");
                assert_eq!(cert.attrs_to_redraw(), vec![AttrId(0)]);
                assert_eq!(root_threshold(&s), 3.0, "{criterion:?} seed {seed}");
            }

            // A monotone key certifies with no flag, and is exact.
            let mut rng = StdRng::seed_from_u64(7);
            let (key, d2) =
                Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).unwrap().into_parts();
            let (s, cert) = key.decode_tree_certified(&builder.fit(&d2), &params, &d).unwrap();
            assert!(cert.flags.is_empty(), "{:?}", cert.flags);
            assert!(ppdt_tree::trees_equal(&s, &t));

            // `verify` redraws the flagged attribute monotone once and
            // returns a certified key; no anti-monotone redraw could
            // clear this tie.
            let e = Encoder::new(anti)
                .verify_with(params)
                .encode(&mut StdRng::seed_from_u64(8), &d)
                .unwrap();
            assert!(e.key.transform(AttrId(0)).increasing);
            assert_eq!(e.attempts, 2);
            let s = e.key.decode_tree(&builder.fit(&e.dataset), params.threshold_policy, &d);
            assert!(ppdt_tree::trees_equal(&s.unwrap(), &t));
        }
    }

    #[test]
    fn verify_rejects_all_boundary_mining() {
        let params = TreeParams {
            candidate_policy: ppdt_tree::CandidatePolicy::AllBoundaries,
            ..Default::default()
        };
        let err = Encoder::new(EncodeConfig::default())
            .verify_with(params)
            .encode(&mut StdRng::seed_from_u64(9), &figure1())
            .unwrap_err();
        assert!(matches!(err, PpdtError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn verified_equals_unverified_for_monotone_configs() {
        // With `anti_monotone_prob = 0` verification fits no tree and
        // changes nothing: same key, same `D'`, one attempt.
        use ppdt_data::gen::{covertype_like, CovertypeConfig};
        let mut rng = StdRng::seed_from_u64(10);
        let census = census_like(&mut rng, 2_000);
        let cover =
            covertype_like(&mut rng, &CovertypeConfig { num_rows: 1_000, ..Default::default() });
        for (name, d) in [("figure1", figure1()), ("census", census), ("covertype", cover)] {
            for seed in 0..3 {
                let plain = Encoder::new(EncodeConfig::default())
                    .encode(&mut StdRng::seed_from_u64(seed), &d)
                    .unwrap();
                let verified = Encoder::new(EncodeConfig::default())
                    .verify(true)
                    .encode(&mut StdRng::seed_from_u64(seed), &d)
                    .unwrap();
                assert_eq!(plain, verified, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn anti_monotone_class_strings_always_preserved() {
        // Even when a tie flips the mined tree, Lemma 1 (histogram
        // reversal) must hold for every anti-monotone encode.
        let mut rng = StdRng::seed_from_u64(21);
        let cfg =
            RandomDatasetConfig { num_rows: 100, num_attrs: 2, num_classes: 2, value_range: 15 };
        for _ in 0..10 {
            let d = random_dataset(&mut rng, &cfg);
            let encode_config = EncodeConfig { anti_monotone_prob: 1.0, ..Default::default() };
            let (key, d2) = Encoder::new(encode_config).encode(&mut rng, &d).unwrap().into_parts();
            assert!(all_class_strings_preserved(&d, &d2, &key));
        }
    }

    #[test]
    fn census_and_wdbc_no_outcome_change() {
        let mut rng = StdRng::seed_from_u64(3);
        let census = census_like(&mut rng, 1_500);
        let wdbc = wdbc_like(&mut rng, 569);
        for d in [census, wdbc] {
            let report =
                no_outcome_change(&mut rng, &d, &EncodeConfig::default(), TreeParams::default())
                    .unwrap();
            assert!(report.all_ok(), "{:?}", report.first_diff);
        }
    }

    #[test]
    fn naive_antimonotone_inside_monotone_attribute_breaks_runs() {
        // The DESIGN.md §4 refinement, demonstrated: flip one
        // non-monochromatic piece's direction by hand and observe the
        // histogram sequence change. This is why the encoder restricts
        // non-mono pieces to the global direction.
        let schema = Schema::new(["a"], ["H", "L"]);
        let mut b = DatasetBuilder::new(schema);
        // Non-monochromatic stretch with an asymmetric label pattern
        // H,H,L over values 1,2,3 and a tail 4(L), 5(L).
        for (v, c) in [(1.0, 0u16), (2.0, 0), (3.0, 1), (4.0, 1), (5.0, 1)] {
            b.push_row(&[v], ClassId(c));
        }
        let d = b.build();
        // "Piece" = values {1,2,3} transformed anti-monotonically onto
        // [10,30]; values {4,5} monotonically onto [40,50]. The
        // piece's label pattern HHL becomes LHH — the class string
        // changes, so the paper's Lemma 1 machinery breaks.
        let col: Vec<f64> = d
            .column(AttrId(0))
            .iter()
            .map(|&v| match v as i64 {
                1 => 30.0,
                2 => 20.0,
                3 => 10.0,
                4 => 40.0,
                _ => 50.0,
            })
            .collect();
        let d2 = d.with_column(AttrId(0), col);
        assert!(!class_strings_preserved(&d, &d2, AttrId(0), true));
    }

    #[test]
    fn histogram_reversal_detects_direction() {
        let d = figure1();
        let col: Vec<f64> = d.column(AttrId(0)).iter().map(|&v| -v).collect();
        let d2 = d.with_column(AttrId(0), col);
        assert!(class_strings_preserved(&d, &d2, AttrId(0), false));
        assert!(!class_strings_preserved(&d, &d2, AttrId(0), true));
    }

    #[test]
    fn pruned_trees_also_preserved() {
        // Pruning is count-based, so prune(decode(T')) == prune(T).
        use ppdt_tree::prune_pessimistic;
        let mut rng = StdRng::seed_from_u64(4);
        let cfg =
            RandomDatasetConfig { num_rows: 200, num_attrs: 2, num_classes: 2, value_range: 30 };
        for _ in 0..5 {
            let d = random_dataset(&mut rng, &cfg);
            let (key, d2) =
                Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).unwrap().into_parts();
            let builder = TreeBuilder::default();
            let t = prune_pessimistic(&builder.fit(&d), 0.25);
            let t2 = prune_pessimistic(&builder.fit(&d2), 0.25);
            let s = key.decode_tree(&t2, ThresholdPolicy::DataValue, &d).unwrap();
            assert!(ppdt_tree::trees_equal(&s, &t), "{:?}", tree_diff(&s, &t, 0.0));
        }
    }
}
