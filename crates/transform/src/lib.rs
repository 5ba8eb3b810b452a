//! # ppdt-transform
//!
//! The paper's primary contribution: **piecewise (anti-)monotone
//! transformations** that encode a training relation so that
//!
//! 1. the decision tree mined on the encoded data decodes *exactly* to
//!    the tree mined on the original data (the no-outcome-change
//!    guarantee, Section 4),
//! 2. the encoded values protect the inputs (domain / subspace
//!    association disclosure), and
//! 3. the mined tree's thresholds protect the outputs (pattern
//!    disclosure).
//!
//! Modules:
//!
//! * [`func`] — the invertible monotone function families `F_mono`
//!   (linear, power/polynomial, log, sqrt-log, exp; Section 5.3),
//! * [`family`] — random samplers over those families,
//! * [`breakpoints`] — `ChooseBP` (random breakpoints, Figure 5) and
//!   `ChooseMaxMP` (maximal monochromatic pieces, Figure 6),
//! * [`piecewise`] — the per-attribute piecewise transform: pieces,
//!   per-piece functions (any bijection on monochromatic pieces, a
//!   random permutation by default), disjoint output intervals
//!   enforcing the global-(anti-)monotone invariant (Definition 8),
//!   exact encode/decode,
//! * [`encoder`] — dataset-level encoding via the [`Encoder`] builder
//!   and the serializable custodian [`TransformKey`], whose decode
//!   replay certifies Theorem 2 ([`Certificate`]),
//! * [`compiled`] — [`CompiledKey`], an audited [`TransformKey`]
//!   lowered into flat cache-friendly arrays for allocation-free,
//!   dispatch-free per-value encode/decode (bit-identical to the
//!   interpreted path), and [`RekeyPlan`], the fused decode∘encode
//!   used for online key rotation,
//! * [`verify`] — class-string-preservation and no-outcome-change
//!   checkers (Lemma 1, Theorems 1–2),
//! * [`audit`] — structural audit of a loaded [`TransformKey`]
//!   (alone, or against a dataset), producing a machine-readable
//!   [`AuditReport`] for the untrusted custodian boundary,
//! * [`perturb`] — the random-perturbation baseline the paper contrasts
//!   against (Section 2).
//!
//! ## Correctness refinement
//!
//! Unlike a naive reading of Section 5.3, *non-monochromatic* pieces
//! are restricted to functions consistent with the attribute's global
//! direction: an anti-monotone function inside a globally monotone
//! attribute would reverse that chunk of the class string and could
//! change the mined tree. Monochromatic pieces may use any bijection.
//! See `DESIGN.md` §4 and `verify::tests` for the demonstration.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod audit;
pub mod breakpoints;
pub mod compiled;
pub mod encoder;
pub mod family;
pub mod func;
pub mod perturb;
pub mod piecewise;
pub mod verify;

pub use audit::{audit_key, audit_key_against, AuditFinding, AuditReport, Severity};
pub use breakpoints::{plan_pieces, BreakpointStrategy, PiecePlan};
pub use compiled::{CompiledKey, CompiledTransform, RekeyPlan};
pub use encoder::{Certificate, EncodeConfig, Encoded, Encoder, LayoutKind, TieFlag, TransformKey};
pub use family::FnFamily;
pub use func::MonoFunc;
pub use perturb::{perturb_dataset, PerturbKind, Perturbation};
pub use piecewise::{OutputLocation, Piece, PieceKind, PiecewiseTransform};
pub use ppdt_error::{ErrorCategory, PpdtError};
pub use verify::{class_strings_preserved, no_outcome_change, OutcomeReport};
