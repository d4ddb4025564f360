//! Repair-queue drain benchmarks.
//!
//! Two costs matter for the durability control plane:
//!
//! * **The scan** — every clock advance drains the queue, so a deployment
//!   with a large backlog pays the entry parse + health check + risk
//!   ordering even when nothing needs to move.
//!   `repair/enqueue_drain_resolve/N` enqueues `N` *healthy* objects and
//!   drains: every entry resolves on the reachability fast path without
//!   moving a byte.
//! * **The backfill** — the full degraded-write cycle:
//!   `repair/degrade_backfill/N` kills one provider's backend, lands `N`
//!   degraded writes (k = 4 of 5 chunks, durability debt committed with the
//!   metadata), revives the provider and drains — each drain re-encodes the
//!   object and commits at full width, settling the debt.
//!
//! Run with `cargo bench -p scalia-bench --bench repair`; CI runs the
//! `--test` smoke mode.

use criterion::{criterion_group, criterion_main, Criterion};
use scalia_core::migration::MigrationBudget;
use scalia_core::placement::PlacementEngine;
use scalia_engine::cluster::ScaliaCluster;
use scalia_engine::repair::{drain_repair_queue, enqueue, queue_entries};
use scalia_types::object::ObjectKey;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::zone::ZoneSet;

const OBJECT_BYTES: usize = 16 * 1024;

fn flex_rule() -> StorageRule {
    StorageRule::new(
        "bench-flex",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// Lock-in 0.2 over the five-provider paper catalog: a single provider loss
/// forces the degraded-write fallback (see the engine's put path).
fn wide_rule() -> StorageRule {
    StorageRule::new(
        "bench-wide",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.0),
        ZoneSet::all(),
        0.2,
    )
}

fn payload(i: usize) -> Vec<u8> {
    (0..OBJECT_BYTES)
        .map(|b| ((i * 131 + b) % 251) as u8)
        .collect()
}

/// Healthy-backlog scan: `n` enqueued objects that all resolve without data
/// movement.
fn bench_resolve_scan(c: &mut Criterion, n: usize) {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let placement = PlacementEngine::new();
    let keys: Vec<ObjectKey> = (0..n)
        .map(|i| ObjectKey::new("bench", format!("healthy-{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        cluster
            .put(key, payload(i), "application/x-tar", flex_rule(), None)
            .unwrap();
    }

    let mut group = c.benchmark_group("repair");
    group.bench_function(format!("enqueue_drain_resolve/{n}"), |b| {
        b.iter(|| {
            for key in &keys {
                enqueue(&infra, key, "provider-outage").unwrap();
            }
            let report = drain_repair_queue(
                cluster.engine(0),
                &infra,
                &placement,
                &MigrationBudget::UNLIMITED,
                infra.now(),
            )
            .unwrap();
            assert_eq!(report.resolved, n, "healthy entries must all resolve");
            assert_eq!(report.bytes_moved, 0);
            report
        })
    });
    group.finish();
}

/// Full degraded-write → backfill cycle for `n` objects per iteration.
fn bench_degrade_backfill(c: &mut Criterion, n: usize) {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let infra = cluster.infra().clone();
    let placement = PlacementEngine::new();
    let victim = infra.catalog().all()[0].id;
    let mut round = 0usize;

    let mut group = c.benchmark_group("repair");
    group.bench_function(format!("degrade_backfill/{n}"), |b| {
        b.iter(|| {
            round += 1;
            infra.backend(victim).unwrap().set_down(true);
            for i in 0..n {
                // The detector black-lists the victim after each failed
                // upload; restore it in the catalog (backend still dead) so
                // every write re-attempts and lands degraded.
                infra.catalog().mark_available(victim);
                let key = ObjectKey::new("bench", format!("degraded-{round}-{i}"));
                let meta = cluster
                    .put(&key, payload(i), "application/x-tar", wide_rule(), None)
                    .unwrap();
                assert_eq!(
                    meta.striping.stripes[0].chunks.len(),
                    4,
                    "must land degraded"
                );
            }
            infra.set_provider_down(victim, false);
            let report = drain_repair_queue(
                cluster.engine(0),
                &infra,
                &placement,
                &MigrationBudget::UNLIMITED,
                infra.now(),
            )
            .unwrap();
            assert_eq!(report.repaired, n, "every debt must backfill");
            assert!(queue_entries(&infra).unwrap().is_empty());
            report
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_resolve_scan(c, 256);
    bench_degrade_backfill(c, 16);
}

criterion_group!(repair, benches);
criterion_main!(repair);
