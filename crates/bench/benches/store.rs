//! Microbenchmarks of the embedded store (Redis substitute, §3.6): point
//! ops and the optimistic transactions the dependency graph commits with.

use std::hint::black_box;

use aim_store::{Db, Key};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_point_ops(c: &mut Criterion) {
    let db = Db::new();
    for i in 0..10_000u32 {
        db.set(format!("key:{i:06}"), i.to_be_bytes().to_vec());
    }
    c.bench_function("store/get", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let k = format!("key:{:06}", i % 10_000);
            black_box(db.get(black_box(&k)));
            i += 1;
        });
    });
    c.bench_function("store/set", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let k = format!("key:{:06}", i % 10_000);
            db.set(black_box(&k), i.to_be_bytes().to_vec());
            i += 1;
        });
    });
    c.bench_function("store/incr", |b| {
        b.iter(|| {
            black_box(db.incr("counter", 1).unwrap());
        });
    });
}

fn bench_transactions(c: &mut Criterion) {
    // The engine's commit shape: read-modify-write of a handful of agent
    // records plus a counter, uncontended.
    let db = Db::new();
    for i in 0..1_000u32 {
        db.set(format!("agent:{i:04}"), vec![0u8; 16]);
    }
    c.bench_function("store/txn_cluster_commit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let base = (i * 7) % 990;
            db.transaction(|txn| {
                for k in 0..4u32 {
                    let key = format!("agent:{:04}", base + k);
                    let v = txn.get(&key).unwrap_or_default();
                    txn.set(&key, v.to_vec());
                }
                let c = txn.get_i64("commits")?;
                txn.set_i64("commits", c + 1);
                Ok(())
            })
            .unwrap();
            i += 1;
        });
    });
}

/// Agents of the live city workload (`city-live`).
const CITY_AGENTS: u32 = 2_512;

/// Records per tracker commit: the size of a large cluster.
const COMMIT_RECORDS: u32 = 37;

/// Steps of history kept resident (the commit cycles through them, so
/// the store stays at a steady size).
const HIST_STEPS: u32 = 8;

fn bench_tracker_commit(c: &mut Criterion) {
    // The transaction of `DepGraph::advance` with history on: one
    // interned record per agent, one history record per agent at its new
    // step, and the commit counter's read-modify-write. The record and
    // history values share one buffer, as the tracker's do.
    let db = Db::new();
    let agents: Vec<Key> = (0..CITY_AGENTS)
        .map(|a| Key::tagged_u32(*b"dagt", a))
        .collect();
    let hist: Vec<Key> = (0..HIST_STEPS * CITY_AGENTS)
        .map(|i| Key::tagged_u32_pair(*b"dhst", i / CITY_AGENTS, i % CITY_AGENTS))
        .collect();
    let values = bytes::Bytes::from(vec![7u8; 12 * COMMIT_RECORDS as usize]);
    let commits = Key::new("dep:commits");
    c.bench_function("store/txn_tracker_commit", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let base = (i * COMMIT_RECORDS) % CITY_AGENTS;
            let step = (i * COMMIT_RECORDS / CITY_AGENTS) % HIST_STEPS;
            db.transaction(|txn| {
                for k in 0..COMMIT_RECORDS {
                    let a = (base + k) % CITY_AGENTS;
                    let v = values.slice(12 * k as usize..12 * (k as usize + 1));
                    txn.set_key(&agents[a as usize], v.clone());
                    txn.set_key(&hist[(step * CITY_AGENTS + a) as usize], v);
                }
                let n = txn.get_key(&commits).map_or(0, |v| {
                    i64::from_be_bytes(v.as_ref().try_into().expect("8-byte counter"))
                });
                txn.set_key(&commits, (n + 1).to_be_bytes().to_vec());
                Ok(())
            })
            .unwrap();
            i = i.wrapping_add(1);
        });
    });
}

/// Threads racing on one key in `store/txn_contended`.
const CONTENDERS: usize = 4;

/// Increments each contender commits per iteration.
const INCREMENTS: usize = 250;

fn bench_contended(c: &mut Criterion) {
    // Four threads transactionally incrementing one key: every commit
    // invalidates the others' reads, so this prices conflict detection,
    // retries and the backoff between them. One iteration is 1,000
    // committed increments (plus four thread spawns).
    let db = Db::new();
    c.bench_function("store/txn_contended", |b| {
        b.iter(|| {
            std::thread::scope(|s| {
                for _ in 0..CONTENDERS {
                    s.spawn(|| {
                        for _ in 0..INCREMENTS {
                            db.transaction(|txn| {
                                let v = txn.get_i64("hot")?;
                                txn.set_i64("hot", v + 1);
                                Ok(())
                            })
                            .unwrap();
                        }
                    });
                }
            });
            black_box(db.get_i64("hot").unwrap())
        });
    });
}

fn bench_calibration(c: &mut Criterion) {
    // Machine-speed reference for bench_gate normalization (see
    // `aim_bench::calibration_spin`); its presence is what lets the
    // store target join the gated allowlist.
    c.bench_function("calibration/spin", |b| {
        b.iter(|| black_box(aim_bench::calibration_spin()))
    });
}

criterion_group!(
    benches,
    bench_point_ops,
    bench_transactions,
    bench_tracker_commit,
    bench_contended,
    bench_calibration
);
criterion_main!(benches);
