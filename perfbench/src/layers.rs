//! In-process probes of each layer's public functions, run after the
//! traced window on the workload's own inputs: every per-layer figure
//! that is not read from the daemon's `/metrics` or `/proc` entry.

use std::io::{BufReader, Cursor};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ppdt_data::{csv, AttrId, Dataset};
use ppdt_obs::Counter;
use ppdt_serve::api::{
    ClassifyRequest, ClassifyResponse, DecodeTreeRequest, DecodeTreeResponse, EncodeRequest,
    EncodeResponse, ListKeysResponse, RekeyRequest, RekeyResponse,
};
use ppdt_serve::handlers::{self, HandlerCtx};
use ppdt_serve::http::{self, Request};
use ppdt_serve::{Caches, Endpoint, KeyStore, PlanCache, Tenant, TreeCache};
use ppdt_transform::{audit_key, CompiledKey, EncodeConfig, Encoder, RekeyPlan, TransformKey};
use ppdt_tree::{DecisionTree, ThresholdPolicy};

use crate::inputs::{self, Churn, Hot};
use crate::stats::{self, Span};
use crate::{Report, Run};

/// Largest tolerated `|serve.handle_residual_us|`, as a share of
/// `serve.handle_us`: the parts are timed apart from the whole, so
/// they add up only approximately.
pub const RESIDUAL_TOLERANCE: f64 = 0.25;

/// What the probes run on.
pub struct Probe {
    /// Tenant the probe's keys live in.
    pub tenant: Tenant,
    /// The plaintext table.
    pub table: Dataset,
    /// The workload's key and its `T'`.
    pub key: TransformKey,
    /// `T'`, mined on the key's `D'`.
    pub tree: DecisionTree,
    /// A second key on the same table (the rekey target).
    pub other: TransformKey,
    /// Further keys the replayed requests name, stored beside `key`
    /// and `other`.
    pub stored: Vec<TransformKey>,
    /// Keys never stored, for `put_in`.
    pub new_keys: Vec<TransformKey>,
    /// Request bytes replayed through parse, JSON and `handle`.
    pub requests: Vec<Vec<u8>>,
    /// Key store whose listing `keystore.list_ms` times.
    pub list_dir: PathBuf,
    /// Scratch directory for the probe's own key store.
    pub dir: PathBuf,
}

impl Probe {
    /// Probe inputs of `serve-hot`: a second key and five unstored
    /// ones drawn from `seed` on the workload's table.
    pub fn hot(h: &Hot, seed: u64, work: &Path) -> Probe {
        let mut r = inputs::rng(seed, 900);
        let draw = |r: &mut rand::rngs::StdRng| {
            Encoder::new(EncodeConfig::default()).encode(r, &h.table).expect("draw").key
        };
        let other = draw(&mut r);
        let new_keys = (0..5).map(|_| draw(&mut r)).collect();
        let dir = work.join("probe-store");
        Probe {
            tenant: Tenant::Default,
            table: h.table.clone(),
            key: h.key.key.clone(),
            tree: h.key.tree.clone(),
            other,
            stored: Vec::new(),
            new_keys,
            requests: h.traffic.templates.iter().map(|t| t.bytes.clone()).collect(),
            list_dir: dir.clone(),
            dir,
        }
    }

    /// Probe inputs of `serve-churn`: tenant `t0`, a sample of the
    /// request templates, and the daemon's 128-key store to list.
    pub fn churn(c: &Churn, work: &Path, daemon_dir: &Path) -> Probe {
        let t = &c.tenants[0];
        let used = c.traffic.pool_next.load(std::sync::atomic::Ordering::Relaxed);
        Probe {
            tenant: Tenant::parse(&t.name).expect("valid tenant"),
            table: t.table.clone(),
            key: t.keys[0].key.clone(),
            tree: t.keys[0].tree.clone(),
            other: t.keys[1].key.clone(),
            stored: t.keys[2..].iter().map(|k| k.key.clone()).collect(),
            new_keys: c.new_keys.iter().skip(used).take(5).map(|(_, k)| k.clone()).collect(),
            // Four keys' classify, encode, decode-tree and rekey.
            requests: c.traffic.templates.iter().take(16).map(|t| t.bytes.clone()).collect(),
            list_dir: daemon_dir.to_path_buf(),
            dir: work.join("probe-store"),
        }
    }
}

/// Times `f` until `budget` seconds or `max` calls, at least `min`;
/// returns seconds per call. Each call is recorded as a span `name`.
fn time<T>(
    spans: &mut Vec<Span>,
    t0: Instant,
    name: &'static str,
    min: usize,
    max: usize,
    budget: f64,
    mut f: impl FnMut(usize) -> T,
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed().as_secs_f64() < budget) {
        let a = Instant::now();
        std::hint::black_box(f(out.len()));
        let b = Instant::now();
        spans.push(Span {
            name,
            id: out.len() as u64,
            parent: None,
            start_ns: (a - t0).as_nanos() as u64,
            end_ns: (b - t0).as_nanos() as u64,
        });
        out.push((b - a).as_secs_f64());
    }
    out
}

fn med(v: &[f64]) -> f64 {
    stats::median(v)
}

fn counters(c: &[Counter]) -> Vec<u64> {
    c.iter().map(|&c| ppdt_obs::counter(c)).collect()
}

/// Runs every in-process probe and adds its per-layer metrics to `rep`.
pub fn run_probes(rep: &mut Report, p: &Probe, run: &Run) -> Result<(), String> {
    ppdt_obs::set_enabled(true);
    let t0 = Instant::now();
    let mut sp = Vec::new();
    let s = &mut sp;
    let rows = p.table.num_rows() as f64;
    let values = rows * p.table.num_attrs() as f64;
    let text = csv::to_csv(&p.table);
    let plan = CompiledKey::compile(&p.key).map_err(|e| e.to_string())?;
    let other = CompiledKey::compile(&p.other).map_err(|e| e.to_string())?;
    let d_prime = inputs::encode_table(&plan, &p.table);

    // data
    let v = time(s, t0, "data.parse_csv", 3, 50, 0.3, |_| csv::parse_csv(&text).expect("parses"));
    rep.metric("data.parse_csv_ms", "ms", med(&v) * 1e3 * 1000.0 / rows);
    let v = time(s, t0, "data.to_csv", 3, 50, 0.3, |_| csv::to_csv(&p.table));
    rep.metric("data.to_csv_ms", "ms", med(&v) * 1e3 * 1000.0 / rows);

    // transform
    let v = time(s, t0, "transform.encode_value", 3, 100, 0.2, |_| {
        let mut acc = 0.0;
        for a in p.table.schema().attrs() {
            for &x in p.table.column(a) {
                acc += plan.encode_value(a, x).expect("in domain");
            }
        }
        acc
    });
    rep.metric("transform.encode_value_ns", "ns", med(&v) * 1e9 / values);
    let mut col = Vec::new();
    let v = time(s, t0, "transform.encode_column", 3, 100, 0.2, |_| {
        for a in p.table.schema().attrs() {
            plan.encode_column(a, p.table.column(a), &mut col).expect("in domain");
        }
        col.len()
    });
    rep.metric("transform.encode_column_ns", "ns", med(&v) * 1e9 / values);
    let v = time(s, t0, "transform.rekey_dataset", 3, 100, 0.2, |_| {
        RekeyPlan::new(&plan, &other).expect("same arity").rekey_dataset(&d_prime).expect("rekeys")
    });
    rep.metric("transform.rekey_ns", "ns", med(&v) * 1e9 / values);
    let v = time(s, t0, "transform.compile", 3, 50, 0.2, |_| {
        CompiledKey::compile(&p.key).expect("compiles")
    });
    rep.metric("transform.compile_ms", "ms", med(&v) * 1e3);
    let v = time(s, t0, "transform.audit_key", 3, 50, 0.2, |_| audit_key(&p.key));
    rep.metric("transform.audit_ms", "ms", med(&v) * 1e3);
    let draw_counters = [Counter::PiecesDrawn, Counter::BoundariesScanned, Counter::DrawRetries];
    let before = counters(&draw_counters);
    let v = time(s, t0, "transform.draw", 3, 3, 0.0, |i| {
        Encoder::new(EncodeConfig::default())
            .encode(&mut inputs::rng(run.seed, 1000 + i as u64), &p.table)
            .expect("draw")
    });
    let after = counters(&draw_counters);
    rep.metric("transform.draw_ms", "ms", med(&v) * 1e3);
    for (name, (a, b)) in
        ["pieces_drawn", "boundaries_scanned", "draw_retries"].iter().zip(after.iter().zip(&before))
    {
        rep.metric(&format!("transform.{name}"), "count", (a - b) as f64 / v.len() as f64);
    }
    let v = time(s, t0, "transform.decode_tree", 3, 50, 0.3, |_| {
        p.key.decode_tree(&p.tree, ThresholdPolicy::DataValue, &p.table).expect("decodes")
    });
    rep.metric("transform.decode_tree_ms", "ms", med(&v) * 1e3);

    // tree
    let miner = inputs::miner();
    let v = time(s, t0, "tree.fit", 3, 20, 0.5, |_| miner.fit(&d_prime));
    rep.metric("tree.fit_ms", "ms", med(&v) * 1e3);
    let before = ppdt_obs::counter(Counter::SplitScanRows);
    let v = time(s, t0, "tree.fit_presorted", 3, 3, 0.0, |_| miner.fit_presorted(&d_prime));
    let scanned = (ppdt_obs::counter(Counter::SplitScanRows) - before) as f64 / v.len() as f64;
    rep.metric("tree.fit_presorted_ms", "ms", med(&v) * 1e3);
    rep.metric("tree.split_scan_rows", "count", scanned);
    let encoded: Vec<Vec<f64>> = (0..d_prime.num_rows())
        .map(|r| d_prime.schema().attrs().map(|a| d_prime.value(r, a)).collect())
        .collect();
    let v = time(s, t0, "tree.predict", 3, 100, 0.2, |_| {
        encoded.iter().map(|r| p.tree.predict(r).0 as u64).sum::<u64>()
    });
    rep.metric("tree.predict_ns", "ns", med(&v) * 1e9 / rows);
    let v = time(s, t0, "tree.validate", 3, 200, 0.2, |_| {
        p.tree.validate(Some(p.key.transforms.len())).expect("valid");
        p.key.check_tree(&p.tree).expect("fits the key")
    });
    rep.metric("tree.validate_us", "us", med(&v) * 1e6);

    // keystore
    let _ = std::fs::remove_dir_all(&p.dir);
    let store = KeyStore::open(&p.dir).map_err(|e| e.to_string())?;
    let (id, _) = store.put_in(&p.tenant, &p.key).map_err(|e| e.to_string())?;
    for k in std::iter::once(&p.other).chain(&p.stored) {
        store.put_in(&p.tenant, k).map_err(|e| e.to_string())?;
    }
    let v = time(s, t0, "keystore.put_in", p.new_keys.len(), p.new_keys.len(), 0.0, |i| {
        store.put_in(&p.tenant, &p.new_keys[i]).expect("stores")
    });
    rep.metric("keystore.put_ms", "ms", med(&v) * 1e3);
    let envelope = match &p.tenant {
        Tenant::Default => p.dir.join(format!("{id}.json")),
        Tenant::Named(name) => p.dir.join("t").join(name).join(format!("{id}.json")),
    };
    let v = time(s, t0, "keystore.stamp", 3, 1000, 0.1, |_| {
        std::fs::metadata(&envelope).expect("stored").len()
    });
    rep.metric("keystore.stamp_us", "us", med(&v) * 1e6);
    let v = time(s, t0, "keystore.get_in", 3, 20, 0.3, |_| {
        KeyStore::open(&p.dir)
            .expect("opens")
            .get_in(&p.tenant, &id)
            .expect("reads")
            .expect("present")
    });
    rep.metric("keystore.get_cold_ms", "ms", med(&v) * 1e3);
    let listed = KeyStore::open(&p.list_dir).map_err(|e| e.to_string())?;
    let v = time(s, t0, "keystore.list_in", 3, 10, 0.5, |_| {
        let mut n = 0;
        for t in listed.list_tenants().expect("lists tenants") {
            n += listed.list_in(&t).expect("lists").len();
        }
        n
    });
    rep.metric("keystore.list_ms", "ms", med(&v) * 1e3);

    // cache
    let plans = PlanCache::new(64);
    plans.get_or_compile(&store, &p.tenant, &id).map_err(|e| e.to_string())?;
    let v = time(s, t0, "cache.plan_hit", 3, 1000, 0.1, |_| {
        plans.get_or_compile(&store, &p.tenant, &id).expect("hit")
    });
    rep.metric("cache.plan_lookup_hit_us", "us", med(&v) * 1e6);
    let v = time(s, t0, "cache.plan_miss", 3, 20, 0.3, |_| {
        let cold = KeyStore::open(&p.dir).expect("opens");
        PlanCache::new(64).get_or_compile(&cold, &p.tenant, &id).expect("compiles")
    });
    rep.metric("cache.plan_lookup_miss_ms", "ms", med(&v) * 1e3);
    let v = time(s, t0, "cache.tree_key", 3, 200, 0.1, |_| {
        let json = serde_json::to_string(&p.tree).expect("serializes");
        TreeCache::cache_key(&p.tenant, &id, json.as_bytes())
    });
    rep.metric("cache.tree_key_us", "us", med(&v) * 1e6);

    serve_replay(rep, p, &store, s, t0)?;
    rep.probe_spans = sp;
    Ok(())
}

/// Replays the workload's request bytes in process: HTTP parse, JSON
/// decode and encode, and `handlers::handle` as a whole against the
/// sum of its parts timed apart.
fn serve_replay(
    rep: &mut Report,
    p: &Probe,
    store: &KeyStore,
    s: &mut Vec<Span>,
    t0: Instant,
) -> Result<(), String> {
    let caches = Caches::new(64, 32);
    let ctx = HandlerCtx {
        store,
        caches: &caches,
        cluster: None,
        node_id: "perfbench",
        tenant_max_keys: 0,
    };
    let (mut parse, mut dec, mut enc, mut whole, mut parts) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut n = 0.0;
    for bytes in &p.requests {
        let read = |b: &[u8]| {
            let mut r = BufReader::new(Cursor::new(b));
            let head = http::read_head(&mut r).expect("head parses").expect("a request");
            let mut body = Vec::new();
            http::read_body_into(&mut r, &head, 1 << 26, &mut body).expect("body reads");
            Request { method: head.method, path: head.path, body }
        };
        parse += med(&time(s, t0, "serve.parse", 5, 50, 0.05, |_| read(bytes)));
        let req = read(bytes);
        let route = handlers::route_parts(&req.method, &req.path, false).map_err(|e| e.message)?;
        let key_id = KeyStore::key_id(&p.key).map_err(|e| e.to_string())?;
        let body = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        // The whole, warm: the first call fills the caches.
        handlers::handle(&route, &req, &ctx).map_err(|e| e.message)?;
        let resp = handlers::handle(&route, &req, &ctx).map_err(|e| e.message)?.body;
        let h = med(&time(s, t0, "serve.handle", 5, 50, 0.1, |_| {
            handlers::handle(&route, &req, &ctx).expect("handles")
        }));
        // The parts the handler is made of, each through the same
        // public function the handler calls.
        let lookup = med(&time(s, t0, "serve.plan_lookup", 5, 200, 0.02, |_| {
            caches.plans.get_or_compile(store, &p.tenant, &key_id).expect("hit")
        }));
        let plan =
            caches.plans.get_or_compile(store, &p.tenant, &key_id).expect("hit").expect("stored");
        let (d, e, compute, lookups) = match route.endpoint {
            Endpoint::Encode => {
                let d = med(&time(s, t0, "serve.json_decode", 5, 50, 0.05, |_| {
                    serde_json::from_str::<EncodeRequest>(body).expect("parses")
                }));
                let out: EncodeResponse = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
                let e = med(&time(s, t0, "serve.json_encode", 5, 50, 0.05, |_| {
                    serde_json::to_string(&out).expect("serializes")
                }));
                let r: EncodeRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let c = match (&r.rows, &r.csv) {
                    (Some(rows), _) => med(&time(s, t0, "serve.encode_rows", 5, 50, 0.05, |_| {
                        rows.iter()
                            .map(|row| {
                                row.iter()
                                    .enumerate()
                                    .map(|(a, &x)| {
                                        plan.plan.encode_value(AttrId(a), x).expect("in domain")
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })),
                    (None, Some(text)) => med(&time(s, t0, "serve.encode_csv", 5, 50, 0.1, |_| {
                        let d = csv::parse_csv(text).expect("parses");
                        csv::to_csv(&inputs::encode_table(&plan.plan, &d))
                    })),
                    _ => 0.0,
                };
                (d, e, c, 1.0)
            }
            Endpoint::Classify => {
                let d = med(&time(s, t0, "serve.json_decode", 5, 50, 0.05, |_| {
                    serde_json::from_str::<ClassifyRequest>(body).expect("parses")
                }));
                let out: ClassifyResponse =
                    serde_json::from_str(&resp).map_err(|e| e.to_string())?;
                let e = med(&time(s, t0, "serve.json_encode", 5, 50, 0.05, |_| {
                    serde_json::to_string(&out).expect("serializes")
                }));
                let r: ClassifyRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let key = med(&time(s, t0, "serve.tree_key", 5, 50, 0.05, |_| {
                    let json = serde_json::to_string(&r.tree).expect("serializes");
                    caches.trees.get(&TreeCache::cache_key(&p.tenant, &key_id, json.as_bytes()))
                }));
                let c = med(&time(s, t0, "serve.classify_rows", 5, 50, 0.05, |_| {
                    let mut point = Vec::new();
                    r.rows
                        .iter()
                        .map(|row| {
                            point.clear();
                            point.extend(row.iter().enumerate().map(|(a, &x)| {
                                plan.plan.encode_value(AttrId(a), x).expect("in domain")
                            }));
                            r.tree.predict(&point).0
                        })
                        .collect::<Vec<_>>()
                }));
                (d, e, key + c, 1.0)
            }
            Endpoint::DecodeTree => {
                let d = med(&time(s, t0, "serve.json_decode", 5, 50, 0.05, |_| {
                    serde_json::from_str::<DecodeTreeRequest>(body).expect("parses")
                }));
                let out: DecodeTreeResponse =
                    serde_json::from_str(&resp).map_err(|e| e.to_string())?;
                let e = med(&time(s, t0, "serve.json_encode", 5, 50, 0.05, |_| {
                    serde_json::to_string(&out).expect("serializes")
                }));
                let r: DecodeTreeRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
                // A warm decode is a tree-cache hit: re-serialize, digest
                // tree and data, clone the cached tree.
                let key = med(&time(s, t0, "serve.tree_key", 5, 50, 0.05, |_| {
                    let mut payload =
                        serde_json::to_string(&r.tree).expect("serializes").into_bytes();
                    payload.push(b'\n');
                    payload.extend_from_slice(r.csv.as_deref().unwrap_or("").as_bytes());
                    caches
                        .trees
                        .get(&TreeCache::cache_key(&p.tenant, &key_id, &payload))
                        .map(|t| (*t).clone())
                }));
                (d, e, key, 1.0)
            }
            Endpoint::Rekey => {
                let d = med(&time(s, t0, "serve.json_decode", 5, 50, 0.05, |_| {
                    serde_json::from_str::<RekeyRequest>(body).expect("parses")
                }));
                let out: RekeyResponse = serde_json::from_str(&resp).map_err(|e| e.to_string())?;
                let e = med(&time(s, t0, "serve.json_encode", 5, 50, 0.05, |_| {
                    serde_json::to_string(&out).expect("serializes")
                }));
                let r: RekeyRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let to = caches
                    .plans
                    .get_or_compile(store, &p.tenant, &r.to_key_id)
                    .expect("hit")
                    .expect("stored");
                let from = caches
                    .plans
                    .get_or_compile(store, &p.tenant, &r.from_key_id)
                    .expect("hit")
                    .expect("stored");
                let c = med(&time(s, t0, "serve.rekey_csv", 5, 50, 0.1, |_| {
                    let d = csv::parse_csv(&r.csv).expect("parses");
                    csv::to_csv(
                        &RekeyPlan::new(&from.plan, &to.plan)
                            .expect("arity")
                            .rekey_dataset(&d)
                            .expect("rekeys"),
                    )
                }));
                // The handler looks up two plans.
                (d, e, c, 2.0)
            }
            Endpoint::ListKeys => {
                let out: ListKeysResponse =
                    serde_json::from_str(&resp).map_err(|e| e.to_string())?;
                let e = med(&time(s, t0, "serve.json_encode", 5, 50, 0.05, |_| {
                    serde_json::to_string(&out).expect("serializes")
                }));
                let c = med(&time(s, t0, "serve.list_in", 5, 50, 0.05, |_| {
                    store.list_in(&p.tenant).expect("lists")
                }));
                // No body to decode and no plan to look up on this path.
                (0.0, e, c, 0.0)
            }
            other => return Err(format!("no replay for endpoint {}", other.name())),
        };
        dec += d;
        enc += e;
        whole += h;
        parts += d + e + compute + lookups * lookup;
        n += 1.0;
    }
    let n = f64::max(n, 1.0);
    rep.metric("serve.parse_us", "us", parse / n * 1e6);
    rep.metric("serve.json_decode_us", "us", dec / n * 1e6);
    rep.metric("serve.json_encode_us", "us", enc / n * 1e6);
    rep.metric("serve.handle_us", "us", whole / n * 1e6);
    let residual = (whole - parts) / n * 1e6;
    rep.metric("serve.handle_residual_us", "us", residual);
    if whole > 0.0 {
        let share = residual / (whole / n * 1e6);
        println!(
            "handlers::handle decomposition: residual {residual:.1} us = {:.1}% of the whole (tolerance {:.0}%) -> {}",
            share * 100.0,
            RESIDUAL_TOLERANCE * 100.0,
            if share.abs() <= RESIDUAL_TOLERANCE { "adds up" } else { "DOES NOT ADD UP" }
        );
    }
    Ok(())
}
