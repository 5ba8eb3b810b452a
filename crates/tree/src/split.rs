//! Impurity metrics and the per-attribute split search.
//!
//! Lemma 2 of the paper: a split point optimizing the gini index or
//! entropy never falls strictly inside a label run, so it suffices to
//! evaluate boundaries between successive runs. We enumerate
//! distinct-value group boundaries and skip those interior to a run
//! (both adjacent groups monochromatic with the same label). The
//! exhaustive variant evaluates *every* group boundary; a test checks
//! that both find the same optimum, which is this crate's evidence for
//! Lemma 2.

use serde::{Deserialize, Serialize};

use ppdt_data::ClassId;

/// Split-selection criterion (Section 4 considers both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitCriterion {
    /// Gini index: minimize the children's weighted gini impurity.
    Gini,
    /// Entropy: maximize information gain (equivalently minimize the
    /// children's weighted entropy).
    Entropy,
}

impl SplitCriterion {
    /// Impurity of a class histogram with `total` tuples.
    pub fn impurity(self, counts: &[u32], total: u32) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = f64::from(total);
        match self {
            SplitCriterion::Gini => {
                let mut s = 0.0;
                for &c in counts {
                    let p = f64::from(c) / t;
                    s += p * p;
                }
                1.0 - s
            }
            SplitCriterion::Entropy => {
                let mut h = 0.0;
                for &c in counts {
                    if c > 0 {
                        let p = f64::from(c) / t;
                        h -= p * p.log2();
                    }
                }
                h
            }
        }
    }

    /// Children's weighted impurity of a boundary that sends the
    /// histogram `left` (`left_n` tuples) to one side and `right`
    /// (`right_n` tuples) to the other: `(nL·g(L) + nR·g(R)) / n`.
    /// The miner scores every candidate boundary with it (lower is
    /// better), and so does the custodian's Theorem 2 certificate.
    ///
    /// Swapping the sides gives the same bits: each side's term is
    /// computed from that side alone, and IEEE addition is
    /// commutative. An anti-monotone transform presents every boundary
    /// with its sides swapped, so this symmetry is what makes the
    /// miner's scores on `D'` bit-equal to its scores on `D`.
    pub fn boundary_score(self, left: &[u32], left_n: u32, right: &[u32], right_n: u32) -> f64 {
        (f64::from(left_n) * self.impurity(left, left_n)
            + f64::from(right_n) * self.impurity(right, right_n))
            / f64::from(left_n + right_n)
    }
}

/// Which group boundaries the split search evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CandidatePolicy {
    /// Only boundaries between label runs (Lemma 2); the default.
    RunBoundaries,
    /// Every distinct-value boundary; used to validate Lemma 2.
    AllBoundaries,
}

/// The best split found for one attribute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttrSplit {
    /// Children's weighted impurity (lower is better).
    pub score: f64,
    /// Largest attribute value routed to the left child.
    pub left_value: f64,
    /// Smallest attribute value routed to the right child.
    pub right_value: f64,
    /// Number of tuples in the left child.
    pub left_count: u32,
    /// Ordinal position of the boundary in the distinct-value sequence
    /// (number of distinct values on the left). Together with the run
    /// structure this is the paper's "split point location".
    pub boundary_index: usize,
    /// Candidate boundaries whose score equals `score` bit for bit
    /// (at least 1). Above 1 the minimum is an exact tie, which the
    /// strict-`<` first-wins rule breaks toward the earliest boundary:
    /// on a reversed order it would pick the last one.
    pub ties: usize,
}

/// Finds the best split of `pairs` (the node's `(value, label)` tuples,
/// **sorted by value**) under `criterion`, and counts the candidate
/// boundaries that tie with it ([`AttrSplit::ties`]).
///
/// Returns `None` when no boundary satisfies `min_leaf` on both sides
/// or all values are equal.
pub fn best_split_sorted(
    pairs: &[(f64, ClassId)],
    num_classes: usize,
    criterion: SplitCriterion,
    policy: CandidatePolicy,
    min_leaf: u32,
) -> Option<AttrSplit> {
    let n = pairs.len() as u32;
    if n < 2 {
        return None;
    }
    debug_assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0), "pairs must be sorted by value");

    let mut left = vec![0u32; num_classes];
    let mut right = vec![0u32; num_classes];
    for &(_, c) in pairs {
        right[c.index()] += 1;
    }

    let mut best: Option<AttrSplit> = None;
    let mut i = 0usize;
    let mut boundary_index = 0usize;

    while i < pairs.len() {
        // Consume one distinct-value group.
        let v = pairs[i].0;
        let mut group_mono: Option<ClassId> = Some(pairs[i].1);
        while i < pairs.len() && pairs[i].0 == v {
            let c = pairs[i].1;
            left[c.index()] += 1;
            right[c.index()] -= 1;
            if group_mono != Some(c) {
                group_mono = None;
            }
            i += 1;
        }
        boundary_index += 1;
        if i == pairs.len() {
            break; // no boundary after the last group
        }

        let left_n = i as u32;
        let right_n = n - left_n;
        // The boundary after this group. Determine whether the next
        // group continues the same run (skip under RunBoundaries).
        let next_v = pairs[i].0;
        let inside_run = match policy {
            CandidatePolicy::AllBoundaries => false,
            CandidatePolicy::RunBoundaries => {
                // Boundary is interior to a run iff this group and the
                // next are monochromatic with the same label.
                match group_mono {
                    None => false,
                    Some(l) => {
                        let mut j = i;
                        let mut next_mono = true;
                        while j < pairs.len() && pairs[j].0 == next_v {
                            if pairs[j].1 != l {
                                next_mono = false;
                                break;
                            }
                            j += 1;
                        }
                        next_mono
                    }
                }
            }
        };

        if inside_run || left_n < min_leaf || right_n < min_leaf {
            continue;
        }

        let score = criterion.boundary_score(&left, left_n, &right, right_n);
        // Strict improvement keeps the earliest boundary on ties, so
        // the winner is deterministic and count-only — identical on
        // the original and transformed data.
        if best.is_none_or(|b| score < b.score) {
            best = Some(AttrSplit {
                score,
                left_value: v,
                right_value: next_v,
                left_count: left_n,
                boundary_index,
                ties: 1,
            });
        } else if let Some(b) = best.as_mut().filter(|b| score == b.score) {
            b.ties += 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(i: u16) -> ClassId {
        ClassId(i)
    }

    #[test]
    fn gini_impurity_basics() {
        let g = SplitCriterion::Gini;
        assert_eq!(g.impurity(&[10, 0], 10), 0.0);
        assert!((g.impurity(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(g.impurity(&[0, 0], 0), 0.0);
    }

    #[test]
    fn entropy_impurity_basics() {
        let e = SplitCriterion::Entropy;
        assert_eq!(e.impurity(&[10, 0], 10), 0.0);
        assert!((e.impurity(&[5, 5], 10) - 1.0).abs() < 1e-12);
        assert!((e.impurity(&[2, 2, 2, 2], 8) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_split_found() {
        // 1,2 -> class 0; 3,4 -> class 1. Best boundary between 2 and 3.
        let pairs = [(1.0, c(0)), (2.0, c(0)), (3.0, c(1)), (4.0, c(1))];
        let s =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::RunBoundaries, 1)
                .unwrap();
        assert_eq!(s.left_value, 2.0);
        assert_eq!(s.right_value, 3.0);
        assert_eq!(s.score, 0.0);
        assert_eq!(s.left_count, 2);
        assert_eq!(s.boundary_index, 2);
        assert_eq!(s.ties, 1);
    }

    #[test]
    fn run_interior_boundaries_skipped() {
        // All one class on the left run: boundary 1|2 is interior.
        let pairs = [(1.0, c(0)), (2.0, c(0)), (3.0, c(1))];
        let s =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::RunBoundaries, 1)
                .unwrap();
        assert_eq!(s.left_value, 2.0);
        // And exhaustive search agrees on the optimum (Lemma 2).
        let s2 =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::AllBoundaries, 1)
                .unwrap();
        assert_eq!(s.score, s2.score);
        assert_eq!(s.left_value, s2.left_value);
    }

    #[test]
    fn ties_never_split() {
        // All values equal: no boundary at all.
        let pairs = [(5.0, c(0)), (5.0, c(1)), (5.0, c(0))];
        assert!(best_split_sorted(
            &pairs,
            2,
            SplitCriterion::Gini,
            CandidatePolicy::RunBoundaries,
            1
        )
        .is_none());
    }

    #[test]
    fn min_leaf_respected() {
        let pairs = [(1.0, c(0)), (2.0, c(1)), (3.0, c(0)), (4.0, c(1))];
        let s =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::AllBoundaries, 2);
        if let Some(s) = s {
            assert!(s.left_count >= 2);
            assert!(s.left_count <= 2);
        }
        let none =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::AllBoundaries, 3);
        assert!(none.is_none());
    }

    #[test]
    fn non_mono_tie_group_is_candidate_boundary() {
        // Group at 2.0 has both classes; the boundary after it must be
        // considered even under RunBoundaries — and here it is the
        // strict optimum.
        let pairs = [(1.0, c(0)), (2.0, c(0)), (2.0, c(0)), (2.0, c(1)), (3.0, c(1)), (3.0, c(1))];
        let s =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::RunBoundaries, 1)
                .unwrap();
        assert_eq!(s.left_value, 2.0);
        assert_eq!(s.right_value, 3.0);
    }

    #[test]
    fn tie_scores_keep_first_boundary() {
        // Boundaries after 1.0 and after 2.0 score identically; the
        // earliest wins so the choice is a pure function of counts.
        let pairs = [(1.0, c(0)), (2.0, c(0)), (2.0, c(1)), (3.0, c(1))];
        let s =
            best_split_sorted(&pairs, 2, SplitCriterion::Gini, CandidatePolicy::RunBoundaries, 1)
                .unwrap();
        assert_eq!(s.left_value, 1.0);
        assert_eq!(s.ties, 2);
        // A B B A: the run boundaries after 1 and after 3 mirror each
        // other and tie bit for bit under both criteria; the B|B
        // boundary inside the run is no candidate.
        let abba = [(1.0, c(0)), (2.0, c(1)), (3.0, c(1)), (4.0, c(0))];
        for crit in [SplitCriterion::Gini, SplitCriterion::Entropy] {
            let s = best_split_sorted(&abba, 2, crit, CandidatePolicy::RunBoundaries, 1).unwrap();
            assert_eq!((s.left_value, s.ties), (1.0, 2), "{crit:?}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(best_split_sorted(&[], 2, SplitCriterion::Gini, CandidatePolicy::RunBoundaries, 1)
            .is_none());
        assert!(best_split_sorted(
            &[(1.0, c(0))],
            2,
            SplitCriterion::Gini,
            CandidatePolicy::RunBoundaries,
            1
        )
        .is_none());
    }

    proptest! {
        /// The certificate's premise: a boundary's score has the same
        /// bits with its two sides swapped, for any histograms.
        #[test]
        fn boundary_score_is_bit_symmetric(
            left in proptest::collection::vec(0u32..50, 2..6),
            right in proptest::collection::vec(0u32..50, 2..6),
            entropy in any::<bool>(),
        ) {
            let crit = if entropy { SplitCriterion::Entropy } else { SplitCriterion::Gini };
            let k = left.len().min(right.len());
            let (left, right) = (&left[..k], &right[..k]);
            let (ln, rn) = (left.iter().sum::<u32>(), right.iter().sum::<u32>());
            prop_assume!(ln + rn > 0);
            let a = crit.boundary_score(left, ln, right, rn);
            let b = crit.boundary_score(right, rn, left, ln);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lemma2_run_boundaries_equal_exhaustive_on_random_data() {
        // Deterministic pseudo-random pattern; checks the optimum score
        // matches between the two policies (Lemma 2).
        let mut pairs = Vec::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((x >> 33) % 37) as f64;
            let l = ((x >> 13) % 3) as u16;
            pairs.push((v, c(l)));
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for crit in [SplitCriterion::Gini, SplitCriterion::Entropy] {
            let a = best_split_sorted(&pairs, 3, crit, CandidatePolicy::RunBoundaries, 1).unwrap();
            let b = best_split_sorted(&pairs, 3, crit, CandidatePolicy::AllBoundaries, 1).unwrap();
            assert!((a.score - b.score).abs() < 1e-12, "{crit:?}");
            assert_eq!(a.left_value, b.left_value, "{crit:?}");
        }
    }
}
