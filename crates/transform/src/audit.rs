//! Structural audit of a custodian key, alone or against a dataset.
//!
//! Keys cross the paper's untrusted boundary (Section 5.4: the key is
//! all the custodian keeps; whoever can corrupt it can corrupt every
//! decoded result). [`audit_key`] verifies a loaded [`TransformKey`]'s
//! structural invariants — piece-interval disjointness, the
//! global-(anti-)monotone invariant of Definition 8, permutation
//! bijectivity, active-domain coverage, injectivity and order — and
//! [`audit_key_against`] additionally cross-checks the key with a
//! dataset (schema arity, per-cell encodability, non-finite cells).
//!
//! Both return a machine-readable [`AuditReport`] listing *all*
//! violations (capped, with exact counts), mirroring the
//! `BenchReport` schema-versioning discipline. The CLI's `ppdt audit
//! --key` surfaces this report and exits with the corrupt-key code on
//! failure; [`PiecewiseTransform::validate`] reuses the same checks
//! but returns only the first error for the hot draw loop.

use ppdt_data::Dataset;
use ppdt_error::PpdtError;
use ppdt_obs::Counter;
use serde::{Deserialize, Serialize};

use crate::encoder::TransformKey;
use crate::piecewise::{PieceKind, PiecewiseTransform};

/// Version of the serialized [`AuditReport`] schema. Bump on breaking
/// changes to the JSON layout.
pub const AUDIT_SCHEMA_VERSION: u32 = 1;

/// Findings above this count are dropped from the report's list (the
/// error/warning *counts* stay exact) so auditing a large hostile
/// dataset cannot balloon memory.
pub const MAX_REPORTED_FINDINGS: usize = 200;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// The key (or key/data pair) must not be used.
    Error,
    /// Suspicious but not disqualifying (e.g. a stale domain value).
    Warning,
}

/// One audit violation, with the position context needed to act on it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditFinding {
    /// Stable snake_case code (e.g. `global_invariant_violated`).
    pub code: String,
    /// Error or warning.
    pub severity: Severity,
    /// Attribute index, when the finding is attribute-scoped.
    pub attr: Option<usize>,
    /// Piece index within the attribute's transform, when piece-scoped.
    pub piece: Option<usize>,
    /// Row index, when the finding points at a dataset cell.
    pub row: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// The typed error equivalent, present on `Error` findings.
    pub error: Option<PpdtError>,
}

/// The audit result: every violation found (up to
/// [`MAX_REPORTED_FINDINGS`]), plus exact counts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Schema version of this report ([`AUDIT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Attributes examined.
    pub attrs_checked: usize,
    /// Rows examined, when a dataset was supplied.
    pub rows_checked: Option<usize>,
    /// Exact number of `Error` findings (including dropped ones).
    pub errors: usize,
    /// Exact number of `Warning` findings (including dropped ones).
    pub warnings: usize,
    /// Whether findings beyond the cap were dropped from the list.
    pub truncated: bool,
    /// The findings, in discovery order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// `true` when the audit found no errors (warnings allowed).
    pub fn passed(&self) -> bool {
        self.errors == 0
    }

    /// The first error finding's typed error, if any.
    pub fn first_error(&self) -> Option<PpdtError> {
        self.findings
            .iter()
            .find(|f| f.severity == Severity::Error)
            .map(|f| f.error.clone().unwrap_or_else(|| PpdtError::key_corrupt(f.message.clone())))
    }

    /// Pretty JSON rendering of the report.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("audit report serializes")
    }
}

/// Collects findings with exact counts and a reporting cap.
struct Sink {
    findings: Vec<AuditFinding>,
    errors: usize,
    warnings: usize,
}

impl Sink {
    fn new() -> Self {
        Sink { findings: Vec::new(), errors: 0, warnings: 0 }
    }

    fn push(&mut self, f: AuditFinding) {
        match f.severity {
            Severity::Error => self.errors += 1,
            Severity::Warning => self.warnings += 1,
        }
        if self.findings.len() < MAX_REPORTED_FINDINGS {
            self.findings.push(f);
        }
    }

    fn error(&mut self, code: &'static str, err: PpdtError) {
        let (attr, piece, row) = positions(&err);
        self.push(AuditFinding {
            code: code.to_string(),
            severity: Severity::Error,
            attr,
            piece,
            row,
            message: err.to_string(),
            error: Some(err),
        });
    }

    fn warning(&mut self, code: &'static str, attr: Option<usize>, message: String) {
        self.push(AuditFinding {
            code: code.to_string(),
            severity: Severity::Warning,
            attr,
            piece: None,
            row: None,
            message,
            error: None,
        });
    }

    fn report(self, attrs_checked: usize, rows_checked: Option<usize>) -> AuditReport {
        let truncated = self.errors + self.warnings > self.findings.len();
        AuditReport {
            schema_version: AUDIT_SCHEMA_VERSION,
            attrs_checked,
            rows_checked,
            errors: self.errors,
            warnings: self.warnings,
            truncated,
            findings: self.findings,
        }
    }
}

/// Pulls the positional context out of a typed error for the finding.
fn positions(e: &PpdtError) -> (Option<usize>, Option<usize>, Option<usize>) {
    match e {
        PpdtError::DomainViolation { attr, piece, .. }
        | PpdtError::KeyCorrupt { attr, piece, .. } => (*attr, *piece, None),
        PpdtError::DrawExhausted { attr, .. } => (*attr, None, None),
        PpdtError::DataCorrupt { row, .. } => (None, None, *row),
        _ => (None, None, None),
    }
}

fn kc(attr: Option<usize>, piece: Option<usize>, detail: String) -> PpdtError {
    PpdtError::KeyCorrupt { attr, piece, detail }
}

/// Runs the structural checks of one per-attribute transform,
/// reporting into `sink` with `attr` context.
fn check_transform(tr: &PiecewiseTransform, attr: Option<usize>, sink: &mut Sink) {
    let n = tr.pieces.len();
    if n == 0 {
        sink.error("empty_transform", kc(attr, None, "transform has no pieces".into()));
        return;
    }

    // Per-piece well-formedness.
    for (i, p) in tr.pieces.iter().enumerate() {
        let ends = [p.input_lo, p.input_hi, p.output_lo, p.output_hi];
        if ends.iter().any(|v| !v.is_finite()) {
            sink.error(
                "piece_interval_invalid",
                kc(attr, Some(i), "piece has a non-finite interval endpoint".into()),
            );
            continue;
        }
        if p.input_lo > p.input_hi {
            sink.error(
                "piece_interval_invalid",
                kc(
                    attr,
                    Some(i),
                    format!("input interval inverted: [{}, {}]", p.input_lo, p.input_hi),
                ),
            );
        }
        if p.output_lo >= p.output_hi {
            sink.error(
                "piece_interval_invalid",
                kc(
                    attr,
                    Some(i),
                    format!("output interval degenerate: [{}, {}]", p.output_lo, p.output_hi),
                ),
            );
        }
        match &p.kind {
            PieceKind::Monotone { f, s, t } => {
                if !s.is_finite() || !t.is_finite() || *s <= 0.0 {
                    sink.error(
                        "piece_scale_invalid",
                        kc(attr, Some(i), format!("renormalization (s={s}, t={t}) invalid")),
                    );
                } else if !f.valid_on(p.input_lo, p.input_hi) {
                    sink.error(
                        "piece_function_invalid",
                        kc(
                            attr,
                            Some(i),
                            format!(
                                "function undefined on input range [{}, {}]",
                                p.input_lo, p.input_hi
                            ),
                        ),
                    );
                } else if f.is_increasing() != tr.increasing {
                    sink.error(
                        "piece_direction_mismatch",
                        kc(
                            attr,
                            Some(i),
                            format!(
                                "piece function is {} but the attribute is globally {}",
                                if f.is_increasing() { "increasing" } else { "decreasing" },
                                if tr.increasing { "monotone" } else { "anti-monotone" },
                            ),
                        ),
                    );
                }
            }
            PieceKind::Permutation { map } => {
                check_permutation(
                    p.input_lo,
                    p.input_hi,
                    p.output_lo,
                    p.output_hi,
                    map,
                    attr,
                    i,
                    sink,
                );
            }
        }
    }

    // Input ranges strictly ascending and disjoint.
    for i in 1..n {
        if tr.pieces[i].input_lo <= tr.pieces[i - 1].input_hi {
            sink.error(
                "input_overlap",
                kc(
                    attr,
                    Some(i),
                    format!(
                        "input range [{}, {}] overlaps previous piece ending at {}",
                        tr.pieces[i].input_lo,
                        tr.pieces[i].input_hi,
                        tr.pieces[i - 1].input_hi
                    ),
                ),
            );
        }
    }

    // Output intervals disjoint and ordered by the global direction —
    // Definition 8's global-(anti-)monotone invariant.
    for i in 1..n {
        let (prev, cur) = (&tr.pieces[i - 1], &tr.pieces[i]);
        let ok = if tr.increasing {
            cur.output_lo > prev.output_hi
        } else {
            cur.output_hi < prev.output_lo
        };
        if !ok {
            sink.error(
                "global_invariant_violated",
                kc(
                    attr,
                    Some(i),
                    format!(
                        "output interval [{}, {}] not strictly {} previous [{}, {}]",
                        cur.output_lo,
                        cur.output_hi,
                        if tr.increasing { "above" } else { "below" },
                        prev.output_lo,
                        prev.output_hi
                    ),
                ),
            );
        }
    }

    // Recorded original domain: sorted, distinct, finite.
    for w in tr.orig_domain.windows(2) {
        // NaN compares as None and must count as a violation.
        if w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Less) {
            sink.error(
                "domain_not_sorted",
                kc(
                    attr,
                    None,
                    format!("original domain not strictly ascending at {} → {}", w[0], w[1]),
                ),
            );
            break;
        }
    }
    if tr.orig_domain.iter().any(|v| !v.is_finite()) {
        sink.error(
            "domain_not_finite",
            kc(attr, None, "original domain has non-finite values".into()),
        );
    }

    // Active-domain coverage: every recorded value must encode, into
    // its piece's output interval; and the full map must be injective
    // and follow the global direction outside permutation pieces.
    let mut images: Vec<(f64, f64, usize)> = Vec::with_capacity(tr.orig_domain.len());
    for &x in &tr.orig_domain {
        match tr
            .piece_for_input(x)
            .and_then(|i| tr.pieces[i].encode(x).map(|y| (i, y)).map_err(|e| e.with_piece(i)))
        {
            Ok((i, y)) => {
                let p = &tr.pieces[i];
                let slack = 1e-9 * (p.output_hi - p.output_lo).abs().max(1.0);
                if !y.is_finite() || y < p.output_lo - slack || y > p.output_hi + slack {
                    sink.error(
                        "piece_output_escape",
                        kc(attr, Some(i), format!("domain value {x} encodes to {y}, outside the piece's output interval")),
                    );
                } else {
                    images.push((y, x, i));
                }
            }
            Err(e) => {
                let e = match attr {
                    Some(a) => e.with_attr(a),
                    None => e,
                };
                sink.error("domain_uncovered", e);
            }
        }
    }
    // Theorem 2 needs the order as well as injectivity: the miner sees
    // the attribute's class string only if the encoded values keep the
    // original order (or reverse it) everywhere except inside a
    // permutation piece, whose values all carry one label. Pieces are
    // contiguous, so checking neighbours in output order suffices.
    images.sort_by(|a, b| a.0.total_cmp(&b.0));
    for w in images.windows(2) {
        let ((y0, x0, i0), (y1, x1, i1)) = (w[0], w[1]);
        let permuted = i0 == i1 && matches!(tr.pieces[i0].kind, PieceKind::Permutation { .. });
        if y0 == y1 {
            sink.error(
                "encode_collision",
                kc(
                    attr,
                    None,
                    format!("domain values {x0} and {x1} encode to the same output {y0}"),
                ),
            );
        } else if !permuted && (x0 < x1) != tr.increasing {
            sink.error(
                "encode_misordered",
                kc(
                    attr,
                    Some(i1),
                    format!(
                        "domain values {x0} and {x1} encode to {y0} < {y1}, against the \
                         attribute's {} direction",
                        if tr.increasing { "monotone" } else { "anti-monotone" }
                    ),
                ),
            );
        }
    }
}

/// Bijectivity and containment checks for one permutation piece.
#[allow(clippy::too_many_arguments)]
fn check_permutation(
    in_lo: f64,
    in_hi: f64,
    out_lo: f64,
    out_hi: f64,
    map: &[(f64, f64)],
    attr: Option<usize>,
    i: usize,
    sink: &mut Sink,
) {
    if map.is_empty() {
        sink.error("permutation_empty", kc(attr, Some(i), "permutation table is empty".into()));
        return;
    }
    for &(x, y) in map {
        if !x.is_finite() || !y.is_finite() {
            sink.error(
                "permutation_not_finite",
                kc(attr, Some(i), format!("permutation entry ({x}, {y}) is non-finite")),
            );
            return;
        }
    }
    for w in map.windows(2) {
        if w[0].0.partial_cmp(&w[1].0) != Some(std::cmp::Ordering::Less) {
            sink.error(
                "permutation_not_bijective",
                kc(
                    attr,
                    Some(i),
                    format!(
                        "permutation inputs not strictly ascending: {} then {}",
                        w[0].0, w[1].0
                    ),
                ),
            );
        }
    }
    let mut outs: Vec<f64> = map.iter().map(|&(_, y)| y).collect();
    outs.sort_by(f64::total_cmp);
    for w in outs.windows(2) {
        if w[0] == w[1] {
            sink.error(
                "permutation_not_bijective",
                kc(
                    attr,
                    Some(i),
                    format!("permutation maps two values to the same output {}", w[0]),
                ),
            );
        }
    }
    for &(x, y) in map {
        if x < in_lo || x > in_hi {
            sink.error(
                "permutation_out_of_interval",
                kc(attr, Some(i), format!("permutation input {x} outside [{in_lo}, {in_hi}]")),
            );
        }
        if y < out_lo || y > out_hi {
            sink.error(
                "permutation_out_of_interval",
                kc(attr, Some(i), format!("permutation output {y} outside [{out_lo}, {out_hi}]")),
            );
        }
    }
}

/// Audits a key's structural invariants attribute by attribute.
pub fn audit_key(key: &TransformKey) -> AuditReport {
    let mut sink = Sink::new();
    if key.transforms.is_empty() {
        sink.error("empty_key", PpdtError::key_corrupt("key has no attribute transforms"));
    }
    for (a, tr) in key.transforms.iter().enumerate() {
        check_transform(tr, Some(a), &mut sink);
    }
    let report = sink.report(key.transforms.len(), None);
    ppdt_obs::add(Counter::AuditViolations, report.errors as u64);
    report
}

/// Audits a key's structure **and** its fit to a dataset: schema
/// arity, per-cell finiteness, and per-cell encodability under the
/// key (active-domain coverage).
pub fn audit_key_against(key: &TransformKey, d: &Dataset) -> AuditReport {
    let mut sink = Sink::new();
    if key.transforms.is_empty() {
        sink.error("empty_key", PpdtError::key_corrupt("key has no attribute transforms"));
    }
    for (a, tr) in key.transforms.iter().enumerate() {
        check_transform(tr, Some(a), &mut sink);
    }

    if key.transforms.len() != d.num_attrs() {
        sink.error(
            "schema_mismatch",
            PpdtError::SchemaMismatch {
                detail: format!(
                    "key has {} attribute transform(s) but the dataset has {} attribute(s)",
                    key.transforms.len(),
                    d.num_attrs()
                ),
            },
        );
    }

    // Cross-check every cell the key claims to cover.
    let attrs = key.transforms.len().min(d.num_attrs());
    for a in 0..attrs {
        let tr = &key.transforms[a];
        let col = d.column(ppdt_data::AttrId(a));
        for (row, &x) in col.iter().enumerate() {
            if !x.is_finite() {
                sink.push(AuditFinding {
                    code: "cell_not_finite".to_string(),
                    severity: Severity::Error,
                    attr: Some(a),
                    piece: None,
                    row: Some(row),
                    message: format!("cell value {x} is not finite"),
                    error: Some(PpdtError::DataCorrupt {
                        row: Some(row),
                        column: Some(a),
                        detail: format!("non-finite value {x}"),
                    }),
                });
            } else if let Err(e) = tr.encode(x) {
                let e = e.with_attr(a);
                sink.push(AuditFinding {
                    code: "cell_uncovered".to_string(),
                    severity: Severity::Error,
                    attr: Some(a),
                    piece: None,
                    row: Some(row),
                    message: format!("row {row}: {e}"),
                    error: Some(e),
                });
            }
        }
        // Stale key-domain values (in the key, absent from the data)
        // are only a warning: decoding still works.
        let active = d.active_domain(ppdt_data::AttrId(a));
        let stale = tr
            .orig_domain
            .iter()
            .filter(|v| active.binary_search_by(|p| p.total_cmp(v)).is_err())
            .count();
        if stale > 0 {
            sink.warning(
                "stale_domain",
                Some(a),
                format!("{stale} key domain value(s) no longer appear in the dataset"),
            );
        }
    }

    let report = sink.report(key.transforms.len(), Some(d.num_rows()));
    ppdt_obs::add(Counter::AuditViolations, report.errors as u64);
    report
}

/// First-error form of the per-transform checks, used by
/// [`PiecewiseTransform::validate`] on the hot draw loop.
pub(crate) fn transform_first_error(tr: &PiecewiseTransform) -> Result<(), PpdtError> {
    let mut sink = Sink::new();
    check_transform(tr, None, &mut sink);
    match sink.findings.into_iter().find(|f| f.severity == Severity::Error) {
        Some(f) => Err(f.error.unwrap_or_else(|| PpdtError::key_corrupt(f.message))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncodeConfig, Encoder};
    use ppdt_data::{ClassId, DatasetBuilder, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_dataset() -> Dataset {
        let schema = Schema::new(["age", "balance"], ["High", "Low"]);
        let mut b = DatasetBuilder::new(schema);
        let rows: [(f64, f64, u16); 8] = [
            (17.0, 100.0, 0),
            (23.0, 250.0, 0),
            (32.0, 90.0, 1),
            (41.0, 400.0, 1),
            (47.0, 380.0, 0),
            (55.0, 120.0, 1),
            (62.0, 310.0, 0),
            (68.0, 55.0, 1),
        ];
        for (a, bal, c) in rows {
            b.push_row(&[a, bal], ClassId(c));
        }
        b.build()
    }

    fn sample_key() -> (TransformKey, Dataset) {
        let d = sample_dataset();
        let mut rng = StdRng::seed_from_u64(7);
        let (key, _) =
            Encoder::new(EncodeConfig::default()).encode(&mut rng, &d).unwrap().into_parts();
        (key, d)
    }

    #[test]
    fn clean_key_passes_alone_and_against_data() {
        let (key, d) = sample_key();
        let r = audit_key(&key);
        assert!(r.passed(), "{}", r.to_json_pretty());
        let r = audit_key_against(&key, &d);
        assert!(r.passed(), "{}", r.to_json_pretty());
        assert_eq!(r.rows_checked, Some(d.num_rows()));
        assert_eq!(r.schema_version, AUDIT_SCHEMA_VERSION);
    }

    #[test]
    fn swapped_output_intervals_fail_the_global_invariant() {
        let (mut key, _) = sample_key();
        let tr = &mut key.transforms[0];
        if tr.pieces.len() < 2 {
            // Force a second piece by splitting? Simpler: flip direction flag.
            tr.increasing = !tr.increasing;
        } else {
            let (a, b) = (0, tr.pieces.len() - 1);
            let lo = tr.pieces[a].clone();
            let hi = tr.pieces[b].clone();
            tr.pieces[a].output_lo = hi.output_lo;
            tr.pieces[a].output_hi = hi.output_hi;
            tr.pieces[b].output_lo = lo.output_lo;
            tr.pieces[b].output_hi = lo.output_hi;
        }
        let r = audit_key(&key);
        assert!(!r.passed());
        assert!(r.first_error().is_some());
        assert!(r.findings.iter().any(|f| f.attr == Some(0)));
    }

    #[test]
    fn de_bijected_permutation_is_reported() {
        let (mut key, _) = sample_key();
        let mut hit = false;
        'outer: for tr in &mut key.transforms {
            for p in &mut tr.pieces {
                if let PieceKind::Permutation { map } = &mut p.kind {
                    if map.len() >= 2 {
                        map[1].1 = map[0].1; // two inputs, one output
                        hit = true;
                        break 'outer;
                    }
                }
            }
        }
        if !hit {
            return; // this draw produced no multi-entry permutation piece
        }
        let r = audit_key(&key);
        assert!(!r.passed());
        assert!(r.findings.iter().any(|f| f.code == "permutation_not_bijective"));
    }

    #[test]
    fn schema_mismatch_detected_against_data() {
        let (mut key, d) = sample_key();
        key.transforms.pop();
        let r = audit_key_against(&key, &d);
        assert!(!r.passed());
        assert!(r.findings.iter().any(|f| f.code == "schema_mismatch"));
        assert!(matches!(
            r.first_error(),
            Some(PpdtError::KeyCorrupt { .. } | PpdtError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn uncovered_cell_reported_with_row() {
        let (key, _) = sample_key();
        let schema = Schema::new(["age", "balance"], ["High", "Low"]);
        let mut b = DatasetBuilder::new(schema);
        b.push_row(&[17.0, 100.0], ClassId(0));
        b.push_row(&[999.0, 100.0], ClassId(1)); // out of the key's domain
        let d2 = b.build();
        let r = audit_key_against(&key, &d2);
        assert!(!r.passed());
        let f = r.findings.iter().find(|f| f.code == "cell_uncovered").expect("finding");
        assert_eq!(f.row, Some(1));
        assert_eq!(f.attr, Some(0));
    }

    #[test]
    fn misordered_images_fail_the_order_check() {
        // Two linear pieces with ordered, disjoint output intervals;
        // the first maps its top value 2 a hair above its interval,
        // inside the escape slack but past the second piece's image
        // of 3. Injective and interval-ordered, yet 2 encodes above
        // 3: the class string the miner sees would change.
        use crate::func::MonoFunc;
        use crate::piecewise::{Piece, PiecewiseTransform};
        let linear =
            |s: f64, t: f64| PieceKind::Monotone { f: MonoFunc::Linear { a: 1.0, b: 0.0 }, s, t };
        let s0 = 10.0 + 5e-9;
        let tr = PiecewiseTransform {
            pieces: vec![
                Piece {
                    input_lo: 1.0,
                    input_hi: 2.0,
                    output_lo: 10.0,
                    output_hi: 20.0,
                    kind: linear(s0, 10.0 - s0),
                },
                Piece {
                    input_lo: 3.0,
                    input_hi: 4.0,
                    output_lo: 20.000000001,
                    output_hi: 30.0,
                    kind: linear(10.0 - 3e-9, 20.000000002 - 3.0 * (10.0 - 3e-9)),
                },
            ],
            increasing: true,
            orig_domain: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert!(tr.encode(2.0).unwrap() > tr.encode(3.0).unwrap());
        let r = audit_key(&TransformKey { transforms: vec![tr.clone()] });
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code.as_str()).collect();
        assert_eq!(codes, ["encode_misordered"], "{}", r.to_json_pretty());
        assert!(matches!(tr.validate(), Err(PpdtError::KeyCorrupt { .. })));
    }

    #[test]
    fn report_serde_roundtrip() {
        let (mut key, _) = sample_key();
        key.transforms[0].pieces.clear();
        let r = audit_key(&key);
        assert!(!r.passed());
        let json = r.to_json_pretty();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
