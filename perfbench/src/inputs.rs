//! Inputs made from the seed, and the answers a correct daemon gives
//! for them, computed in process through the library's public
//! functions before any timing starts.

use std::sync::atomic::AtomicUsize;

use ppdt_data::gen::{covertype_like, CovertypeConfig};
use ppdt_data::{csv, AttrId, Dataset};
use ppdt_serve::api::{
    ClassifyRequest, ClassifyResponse, DecodeTreeRequest, DecodeTreeResponse, EncodeRequest,
    EncodeResponse, ListKeysResponse, RekeyRequest, RekeyResponse, StoreKeyRequest,
    StoreKeyResponse,
};
use ppdt_serve::{KeyEntry, KeyStore};
use ppdt_transform::{CompiledKey, EncodeConfig, Encoder, TransformKey};
use ppdt_tree::{DecisionTree, TreeBuilder, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::load::{request_bytes, Template, Traffic, FROM_POOL};

/// A generator seeded from the run seed and a label, so every input
/// has its own stream and adding one input never shifts another.
pub fn rng(seed: u64, label: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// A covertype-like table at `scale` of the real 581,012 rows (at
/// least 1,000 rows).
pub fn table(seed: u64, label: u64, scale: f64) -> Dataset {
    covertype_like(&mut rng(seed, label), &CovertypeConfig::at_scale(scale))
}

/// The miner every workload uses, on both `D` and `D'`.
pub fn miner() -> TreeBuilder {
    TreeBuilder::new(TreeParams::default())
}

/// `n` rows drawn with replacement from `t`.
pub fn sample_rows(t: &Dataset, n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            let r = rng.gen_range(0..t.num_rows());
            t.schema().attrs().map(|a| t.value(r, a)).collect()
        })
        .collect()
}

/// `t` with every column encoded by `plan` through `encode_column`.
pub fn encode_table(plan: &CompiledKey, t: &Dataset) -> Dataset {
    let cols = t
        .schema()
        .attrs()
        .map(|a| {
            let mut col = Vec::new();
            plan.encode_column(a, t.column(a), &mut col).expect("table is in the key's domain");
            col
        })
        .collect();
    t.with_columns(cols)
}

/// One stored key and what the custodian knows about it.
pub struct KeyInput {
    /// The key.
    pub key: TransformKey,
    /// Its content address.
    pub id: String,
    /// Its compiled plan.
    pub plan: CompiledKey,
    /// `T'`: the tree the miner fits on `D'`.
    pub tree: DecisionTree,
    /// Draw attempts the verified encoder needed.
    pub attempts: usize,
}

/// Draws a verified key on `t` (the decoded tree equals the tree mined
/// on `t`, Theorem 2) and mines its `T'`.
pub fn key_for(t: &Dataset, rng: &mut StdRng) -> KeyInput {
    let enc =
        Encoder::new(EncodeConfig::default()).verify(true).encode(rng, t).expect("verified draw");
    let plan = CompiledKey::compile(&enc.key).expect("a drawn key passes its audit");
    let tree = miner().fit(&encode_table(&plan, t));
    let id = KeyStore::key_id(&enc.key).expect("key id");
    KeyInput { key: enc.key, id, plan, tree, attempts: enc.attempts }
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("wire types serialize")
}

fn encoded_rows(plan: &CompiledKey, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(a, &x)| plan.encode_value(AttrId(a), x).expect("in domain"))
                .collect()
        })
        .collect()
}

fn labels(plan: &CompiledKey, tree: &DecisionTree, rows: &[Vec<f64>]) -> Vec<u16> {
    encoded_rows(plan, rows).iter().map(|r| tree.predict(r).0).collect()
}

/// Endpoints of `serve-hot`, in `/metrics` naming.
pub const HOT_ENDPOINTS: [&str; 3] = ["encode", "classify", "list_keys"];
/// Endpoints of `serve-churn`, in `/metrics` naming.
pub const CHURN_ENDPOINTS: [&str; 5] = ["classify", "encode", "decode_tree", "rekey", "store_key"];

/// Every endpoint either serve workload sends.
pub const ALL_ENDPOINTS: [&str; 6] =
    ["encode", "classify", "list_keys", "decode_tree", "rekey", "store_key"];

/// Rows per `serve-hot` encode or classify request.
pub const HOT_ROWS: usize = 512;
/// Distinct encode and classify requests each in `serve-hot`.
const HOT_TEMPLATES: usize = 8;

/// `serve-hot`: one key for a 1,000-row table, and its tree.
pub struct Hot {
    /// The plaintext table.
    pub table: Dataset,
    /// The key.
    pub key: KeyInput,
    /// Requests and their answers.
    pub traffic: Traffic,
}

/// Builds `serve-hot` from `seed`.
pub fn hot(seed: u64) -> Hot {
    let table = table(seed, 1, 0.001);
    let key = key_for(&table, &mut rng(seed, 2));
    let mut r = rng(seed, 3);
    let mut templates = Vec::new();
    for i in 0..2 * HOT_TEMPLATES {
        let rows = sample_rows(&table, HOT_ROWS, &mut r);
        let (endpoint, path, body, expected) = if i % 2 == 0 {
            let body = json(&EncodeRequest {
                key_id: key.id.clone(),
                csv: None,
                rows: Some(rows.clone()),
            });
            let out = EncodeResponse {
                tenant: None,
                key_id: key.id.clone(),
                rows_encoded: HOT_ROWS as u64,
                csv: None,
                rows: Some(encoded_rows(&key.plan, &rows)),
            };
            (0, "/v1/encode", body, json(&out))
        } else {
            let labels = labels(&key.plan, &key.tree, &rows);
            let body =
                json(&ClassifyRequest { key_id: key.id.clone(), tree: key.tree.clone(), rows });
            let out = ClassifyResponse { tenant: None, key_id: key.id.clone(), labels };
            (1, "/v1/classify", body, json(&out))
        };
        templates.push(Template {
            endpoint,
            bytes: request_bytes("POST", path, &body, false),
            status: 200,
            expected: expected.into_bytes(),
            rows: HOT_ROWS as u64,
        });
    }
    let list = ListKeysResponse {
        tenant: None,
        keys: vec![KeyEntry {
            key_id: key.id.clone(),
            num_attrs: Some(table.num_attrs()),
            valid: true,
        }],
    };
    templates.push(Template {
        endpoint: 2,
        bytes: request_bytes("GET", "/v1/keys", "", false),
        status: 200,
        expected: json(&list).into_bytes(),
        rows: 0,
    });
    // Exactly 10% list_keys, then encode and classify 2:1, in shuffled
    // blocks of ten.
    let order =
        shuffled_blocks(&mut r, &[2, 0, 0, 0, 0, 0, 0, 1, 1, 1], 512)
            .into_iter()
            .map(|kind| {
                if kind == 2 {
                    2 * HOT_TEMPLATES
                } else {
                    2 * r.gen_range(0..HOT_TEMPLATES) + kind
                }
            })
            .collect();
    let traffic = Traffic {
        templates,
        order,
        pool: Vec::new(),
        pool_next: AtomicUsize::new(0),
        fresh: false,
    };
    Hot { table, key, traffic }
}

/// Tenants in `serve-churn`.
pub const TENANTS: usize = 8;
/// Keys per tenant in `serve-churn`.
pub const KEYS_PER_TENANT: usize = 16;
/// Rows per `serve-churn` classify request.
pub const CHURN_CLASSIFY_ROWS: usize = 64;

/// One `serve-churn` tenant: its table and its keys.
pub struct ChurnTenant {
    /// Tenant name (`t0` ... `t7`).
    pub name: String,
    /// The plaintext table (1,000 rows), as the CSV text clients send.
    pub csv: String,
    /// The table parsed from that text.
    pub table: Dataset,
    /// The tenant's stored keys.
    pub keys: Vec<KeyInput>,
}

/// `serve-churn`: 8 tenants x 16 keys, a pool of new keys to store,
/// and the request mix.
pub struct Churn {
    /// The tenants.
    pub tenants: Vec<ChurnTenant>,
    /// New keys, one per store request: (tenant index, key).
    pub new_keys: Vec<(usize, TransformKey)>,
    /// Requests and their answers.
    pub traffic: Traffic,
}

/// Runs `f(0..n)` on [`crate::load::CONNECTIONS`] threads and returns
/// the results in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = crate::load::CONNECTIONS;
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|j| {
                let f = &f;
                s.spawn(move || (j..n).step_by(threads).map(|i| (i, f(i))).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("input thread panicked")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Everything one `serve-churn` tenant contributes: the tenant, its
/// share of the store pool, and its templates (four per key, then one
/// per pool key).
fn churn_tenant(
    seed: u64,
    t: usize,
    new_keys: usize,
) -> (ChurnTenant, Vec<TransformKey>, Vec<Template>) {
    let table = table(seed, 100 + t as u64, 0.001);
    let csv_text = csv::to_csv(&table);
    let table = csv::parse_csv(&csv_text).expect("generated CSV parses");
    let mut r = rng(seed, 200 + t as u64);
    let keys: Vec<KeyInput> = (0..KEYS_PER_TENANT).map(|_| key_for(&table, &mut r)).collect();
    // New keys are plain draws: they are stored, never used.
    let pool: Vec<TransformKey> = (0..new_keys)
        .map(|_| Encoder::new(EncodeConfig::default()).encode(&mut r, &table).expect("draw").key)
        .collect();
    let ten = ChurnTenant { name: format!("t{t}"), csv: csv_text, table, keys };

    let mut templates = Vec::new();
    let base = format!("/v2/t/{}", ten.name);
    let tenant = Some(ten.name.clone());
    let direct = miner().fit(&ten.table);
    let n = ten.table.num_rows();
    // Per key, in this order: classify, encode (CSV), decode-tree, rekey.
    for (k, key) in ten.keys.iter().enumerate() {
        let rows = sample_rows(&ten.table, CHURN_CLASSIFY_ROWS, &mut r);
        let labels = labels(&key.plan, &key.tree, &rows);
        let body = json(&ClassifyRequest { key_id: key.id.clone(), tree: key.tree.clone(), rows });
        let out = ClassifyResponse { tenant: tenant.clone(), key_id: key.id.clone(), labels };
        templates.push(post(
            0,
            &format!("{base}/classify"),
            &body,
            200,
            json(&out),
            CHURN_CLASSIFY_ROWS,
        ));

        let encoded = csv::to_csv(&encode_table(&key.plan, &ten.table));
        let body =
            json(&EncodeRequest { key_id: key.id.clone(), csv: Some(ten.csv.clone()), rows: None });
        let out = EncodeResponse {
            tenant: tenant.clone(),
            key_id: key.id.clone(),
            rows_encoded: n as u64,
            csv: Some(encoded.clone()),
            rows: None,
        };
        templates.push(post(1, &format!("{base}/encode"), &body, 200, json(&out), n));

        let body = json(&DecodeTreeRequest {
            key_id: key.id.clone(),
            tree: key.tree.clone(),
            csv: Some(ten.csv.clone()),
        });
        let out = DecodeTreeResponse {
            tenant: tenant.clone(),
            key_id: key.id.clone(),
            replayed: true,
            tree: direct.clone(),
        };
        templates.push(post(2, &format!("{base}/decode-tree"), &body, 200, json(&out), n));

        // Rekey this key's D' to the tenant's next key: the answer is
        // a direct encode of the plaintext under the target key.
        let to = &ten.keys[(k + 1) % ten.keys.len()];
        let from_parsed = csv::parse_csv(&encoded).expect("encoded CSV parses");
        let target = encode_table(&to.plan, &ten.table);
        let expected_csv = csv::to_csv(
            &from_parsed
                .with_columns(target.schema().attrs().map(|a| target.column(a).to_vec()).collect()),
        );
        let body = json(&RekeyRequest {
            from_key_id: key.id.clone(),
            to_key_id: to.id.clone(),
            csv: encoded,
        });
        let out = RekeyResponse {
            tenant: tenant.clone(),
            from_key_id: key.id.clone(),
            to_key_id: to.id.clone(),
            rows_rekeyed: n as u64,
            csv: expected_csv,
        };
        templates.push(post(3, &format!("{base}/rekey"), &body, 200, json(&out), n));
    }
    for key in &pool {
        let out = StoreKeyResponse {
            tenant: tenant.clone(),
            key_id: KeyStore::key_id(key).expect("key id"),
            num_attrs: key.transforms.len(),
            created: true,
        };
        let body = json(&StoreKeyRequest { key: key.clone() });
        templates.push(post(4, &format!("{base}/keys"), &body, 201, json(&out), 0));
    }
    (ten, pool, templates)
}

/// Builds `serve-churn` from `seed`, with a store pool large enough
/// for the first `max_ticks` ticks.
pub fn churn(seed: u64, max_ticks: usize) -> Churn {
    // The mix exactly, in shuffled blocks of twenty: 8 classify, 7 CSV
    // encode, 2 decode-tree, 2 rekey, 1 store. Tenants take turns, so
    // each carries an eighth of the traffic and no one tenant's table
    // sets a run's cost; within a tenant, keys are Zipf-like (weight
    // 1/rank, ranks shuffled by the seed).
    let mut r = rng(seed, 500);
    let ranks: Vec<Vec<usize>> = (0..TENANTS)
        .map(|_| {
            let mut rank: Vec<usize> = (0..KEYS_PER_TENANT).collect();
            for i in (1..KEYS_PER_TENANT).rev() {
                rank.swap(i, r.gen_range(0..=i));
            }
            rank
        })
        .collect();
    let weights: Vec<f64> = (1..=KEYS_PER_TENANT).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    const STORE: usize = 4;
    let kinds = shuffled_blocks(
        &mut r,
        &[0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, STORE],
        400,
    );
    let order: Vec<usize> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            if kind == STORE {
                return FROM_POOL;
            }
            let mut u = r.gen::<f64>() * total;
            let mut pick = KEYS_PER_TENANT - 1;
            for (k, w) in weights.iter().enumerate() {
                if u < *w {
                    pick = k;
                    break;
                }
                u -= w;
            }
            let tenant = i % TENANTS;
            4 * (tenant * KEYS_PER_TENANT + ranks[tenant][pick]) + kind
        })
        .collect();
    let stores = (0..max_ticks).filter(|k| order[k % order.len()] == FROM_POOL).count();
    let per_tenant = stores.div_ceil(TENANTS);
    let built = par_map(TENANTS, |t| churn_tenant(seed, t, per_tenant));
    let mut tenants = Vec::new();
    let mut templates = Vec::new();
    let mut pool_keys = Vec::new();
    let mut pool_templates = Vec::new();
    for (t, (ten, pool, mut tpls)) in built.into_iter().enumerate() {
        let first_store = tpls.len() - pool.len();
        pool_templates.push(tpls.split_off(first_store));
        pool_keys.push(pool);
        templates.extend(tpls);
        tenants.push(ten);
        debug_assert_eq!(templates.len(), 4 * KEYS_PER_TENANT * (t + 1));
    }
    // Stores take the pool round-robin over the tenants.
    let mut pool = Vec::new();
    let mut new_keys = Vec::new();
    let mut per_tenant_pool: Vec<_> =
        pool_templates.into_iter().zip(pool_keys).map(|(t, k)| t.into_iter().zip(k)).collect();
    for _ in 0..per_tenant {
        for (t, entries) in per_tenant_pool.iter_mut().enumerate() {
            let (template, key) = entries.next().expect("every tenant drew per_tenant keys");
            templates.push(template);
            pool.push(templates.len() - 1);
            new_keys.push((t, key));
        }
    }

    let traffic = Traffic { templates, order, pool, pool_next: AtomicUsize::new(0), fresh: true };
    Churn { tenants, new_keys, traffic }
}

/// `n` copies of `block`, each shuffled on its own.
fn shuffled_blocks(r: &mut StdRng, block: &[usize], n: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(block.len() * n);
    for _ in 0..n {
        let mut b = block.to_vec();
        for i in (1..b.len()).rev() {
            b.swap(i, r.gen_range(0..=i));
        }
        out.extend(b);
    }
    out
}

fn post(
    endpoint: usize,
    path: &str,
    body: &str,
    status: u16,
    expected: String,
    rows: usize,
) -> Template {
    Template {
        endpoint,
        bytes: request_bytes("POST", path, body, true),
        status,
        expected: expected.into_bytes(),
        rows: rows as u64,
    }
}

/// Decides a body that is not byte-identical to `expected`: both are
/// parsed and must carry the same values, with every number equal and
/// every `csv` field parsing to a table with bit-identical cells and
/// the same labels. So a change to the daemon's formatting alone is
/// not a wrong answer, while any changed value is.
pub fn same_answer(expected: &[u8], body: &[u8]) -> bool {
    let parse =
        |b: &[u8]| std::str::from_utf8(b).ok().and_then(|s| serde_json::from_str::<Value>(s).ok());
    match (parse(expected), parse(body)) {
        (Some(a), Some(b)) => values_match(&a, &b, ""),
        _ => false,
    }
}

fn values_match(a: &Value, b: &Value, field: &str) -> bool {
    match (a, b) {
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter().all(|(k, v)| y.iter().any(|(k2, v2)| k == k2 && values_match(v, v2, k)))
        }
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(v, w)| values_match(v, w, field))
        }
        (Value::Str(x), Value::Str(y)) if field == "csv" => {
            match (csv::parse_csv(x), csv::parse_csv(y)) {
                (Ok(dx), Ok(dy)) => {
                    dx.labels() == dy.labels()
                        && dx.num_attrs() == dy.num_attrs()
                        && dx.schema().attrs().all(|at| {
                            let (cx, cy) = (dx.column(at), dy.column(at));
                            cx.len() == cy.len()
                                && cx.iter().zip(cy).all(|(p, q)| p.to_bits() == q.to_bits())
                        })
                }
                _ => false,
            }
        }
        (x, y) => match (x.as_f64(), y.as_f64()) {
            (Some(p), Some(q)) => p.to_bits() == q.to_bits(),
            _ => x == y,
        },
    }
}
