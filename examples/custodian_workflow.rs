//! The full data-custodian workflow from the paper's introduction:
//! a medical research group outsources decision-tree mining on a
//! patient biomarker study without trusting the mining company.
//!
//! ```sh
//! cargo run --release --example custodian_workflow
//! ```
//!
//! Demonstrates: verified encoding (redraw until the no-outcome-change
//! guarantee is checked end-to-end), persisting the custodian key to a
//! JSON file, decoding the miner's tree from the key alone, and a
//! quick disclosure-risk self-audit before release.

use ppdt::prelude::*;
use ppdt::transform::audit_key_against;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2026);

    // The study data: a WDBC-like table of cell morphology features
    // with a benign/malignant label (569 patients, like the original).
    let d = ppdt::data::gen::wdbc_like(&mut rng, 569);
    println!(
        "study data: {} patients, {} features, {} classes",
        d.num_rows(),
        d.num_attrs(),
        d.num_classes()
    );

    // --- 1. Encode, with end-to-end verification. -------------------
    // Anti-monotone directions are allowed here; the verified encoder
    // certifies the decode and redraws monotone any attribute whose
    // exact metric tie would break exact decodability.
    let config = EncodeConfig {
        strategy: BreakpointStrategy::ChooseMaxMP { w: 20, min_piece_len: 5 },
        family: FnFamily::Mixed,
        anti_monotone_prob: 0.5,
        ..Default::default()
    };
    let params = TreeParams { min_samples_leaf: 5, ..Default::default() };
    let encoded =
        Encoder::new(config).verify_with(params).encode(&mut rng, &d).expect("verified encode");
    let (key, d_prime, attempts) = (encoded.key, encoded.dataset, encoded.attempts);
    println!("encoded in {attempts} attempt(s); every value transformed");

    // --- 2. Persist the key (Section 5.4: "rather minimal"). ---------
    let key_json = serde_json::to_string(&key).expect("key serializes");
    let key_path = std::env::temp_dir().join("ppdt_custodian_key.json");
    std::fs::write(&key_path, &key_json).expect("write key file");
    println!("custodian key: {} bytes -> {}", key_json.len(), key_path.display());

    // --- 3. Ship D' to the miner; receive T'. ------------------------
    let t_prime = TreeBuilder::new(params).fit(&d_prime);
    println!("miner returns T': {} leaves, depth {}", t_prime.num_leaves(), t_prime.depth());

    // --- 4. Decode T' using the key loaded from disk. ----------------
    let key_loaded: TransformKey =
        serde_json::from_str(&std::fs::read_to_string(&key_path).expect("read key"))
            .expect("key deserializes");
    // A loaded key is untrusted until audited against the data it
    // claims to cover (hostile-input hardening: corrupt keys are
    // reported, not panicked on).
    let audit = audit_key_against(&key_loaded, &d);
    assert!(audit.passed(), "key audit failed:\n{}", audit.to_json_pretty());
    println!("key audit: {} attribute(s) checked, no findings", audit.attrs_checked);

    let s = key_loaded.decode_tree(&t_prime, params.threshold_policy, &d).expect("decode tree");
    let t = TreeBuilder::new(params).fit(&d);
    assert!(trees_equal(&s, &t), "decode must reproduce the direct tree");
    println!("decoded tree equals the directly mined tree (exact, bitwise)");
    println!("decoded tree classifies the study data at {:.1}% accuracy", 100.0 * s.accuracy(&d));

    // --- 5. Self-audit: what could a hacker recover from D'? ---------
    println!("\nself-audit (expert hacker, polyline fitting, rho = 2%):");
    let scenario = DomainScenario::polyline(HackerProfile::Expert);
    for a in d.schema().attrs() {
        let stats = run_trials(25, 1000 + a.index() as u64, |rng| {
            domain_risk_trial(rng, &d, a, &config, &scenario).expect("trial")
        });
        println!(
            "  {:>15}: median domain disclosure {:>5.1}%  (p90 {:>5.1}%)",
            d.schema().attr_name(a),
            100.0 * stats.median,
            100.0 * stats.p90
        );
    }
    println!("\nrelease decision: ship D' and the mined model; keep the key offline.");

    let _ = std::fs::remove_file(&key_path);
}
