//! Benchmarks of the staged stripe pipeline, plus the acceptance baseline
//! for memory-bounded streaming:
//!
//! * a 64 MiB multipart put must keep the pipeline's transient buffering
//!   (unsealed plaintext + in-flight encoded stripe) under 4 MiB — O(stripe),
//!   not O(object) — asserted here on every run;
//! * a 1 KiB range read of that 64 MiB object must fetch only the covering
//!   stripe's chunks, not the whole object's.
//!
//! The measured numbers are emitted to `BENCH_streaming.json` at the repo
//! root (the streaming bench trajectory's first baseline). The timed
//! criterion routines below use an 8 MiB object so a full sample set stays
//! quick; the 64 MiB acceptance run happens once, outside the timing loops.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use scalia_engine::cluster::ScaliaCluster;
use scalia_providers::backend::StoreOp;
use scalia_types::object::ObjectKey;
use scalia_types::reliability::Reliability;
use scalia_types::rules::StorageRule;
use scalia_types::zone::ZoneSet;
use std::time::Instant;

const MIB: usize = 1024 * 1024;
const PART: usize = 256 * 1024;

fn rule() -> StorageRule {
    StorageRule::new(
        "bench",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// One part's worth of deterministic payload bytes.
fn part_bytes(index: usize) -> Vec<u8> {
    (0..PART)
        .map(|i| (index.wrapping_mul(131).wrapping_add(i) % 251) as u8)
        .collect()
}

/// Streams `total` bytes into `key` through the multipart API, returning
/// the pipeline's transient-buffer high-water mark.
fn streamed_put(cluster: &ScaliaCluster, key: &ObjectKey, total: usize) -> usize {
    let engine = cluster.engine(0);
    let mut upload = engine.begin_put(key, "application/x-tar", rule(), None);
    for index in 0..total / PART {
        upload.put_part(&part_bytes(index)).unwrap();
    }
    let peak = upload.peak_buffer_bytes();
    upload.complete_put().unwrap();
    peak
}

fn chunk_gets(cluster: &ScaliaCluster) -> u64 {
    cluster
        .infra()
        .backends()
        .iter()
        .map(|b| b.latency_snapshot(StoreOp::Get).count)
        .sum()
}

fn clear_caches(cluster: &ScaliaCluster) {
    for cache in cluster.caches() {
        cache.clear();
    }
}

/// The one-shot acceptance run: 64 MiB streamed put + 1 KiB range read vs
/// full get, with the O(stripe) buffering and covering-stripe-only fetch
/// invariants asserted, and the measurements written to
/// `BENCH_streaming.json`.
fn acceptance_baseline() {
    let cluster = ScaliaCluster::builder().build();
    let stripe = cluster.infra().stripe_size_bytes();
    let key = ObjectKey::new("bench", "sixty-four.bin");

    let put_started = Instant::now();
    let peak = streamed_put(&cluster, &key, 64 * MIB);
    let put_us = put_started.elapsed().as_micros() as u64;
    assert!(
        peak <= 4 * MIB,
        "streamed 64 MiB put must buffer O(stripe), not O(object): peak {peak} > 4 MiB"
    );

    let meta = cluster.engine(0).read_metadata(&key).unwrap();
    let stripes = meta.striping.stripe_count();
    let width = meta.striping.stripes[0].chunks.len() as u64;

    // 1 KiB range read, cold: only the covering stripe's chunks move.
    clear_caches(&cluster);
    let before = chunk_gets(&cluster);
    let range_started = Instant::now();
    let got = cluster
        .engine(0)
        .get_range(&key, 31 * MIB as u64, 1024)
        .unwrap();
    let range_us = range_started.elapsed().as_micros() as u64;
    assert_eq!(got.len(), 1024);
    let range_gets = chunk_gets(&cluster) - before;
    assert!(
        range_gets <= width,
        "a 1 KiB range read must fetch one stripe's chunks, not {range_gets} (width {width})"
    );

    // The full read, cold, for contrast.
    clear_caches(&cluster);
    let before = chunk_gets(&cluster);
    let full_started = Instant::now();
    let data = cluster.get(&key).unwrap();
    let full_us = full_started.elapsed().as_micros() as u64;
    assert_eq!(data.len(), 64 * MIB);
    let full_gets = chunk_gets(&cluster) - before;

    let baseline = serde_json::json!({
        "bench": "streaming",
        "object_bytes": 64 * MIB,
        "stripe_bytes": stripe,
        "stripes": stripes,
        "peak_buffer_bytes": peak,
        "peak_buffer_limit_bytes": 4 * MIB,
        "streamed_put_us": put_us,
        "range_read_1KiB_us": range_us,
        "range_read_1KiB_chunk_gets": range_gets,
        "full_get_us": full_us,
        "full_get_chunk_gets": full_gets,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
    std::fs::write(path, format!("{baseline:#}\n")).unwrap();
    eprintln!(
        "streaming baseline: peak {:.2} MiB, 1 KiB range read {range_us} µs / {range_gets} chunk \
         gets, full get {full_us} µs / {full_gets} chunk gets -> {path}",
        peak as f64 / MIB as f64
    );
}

fn bench_streaming(c: &mut Criterion) {
    acceptance_baseline();

    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    group.bench_function("streamed_put_8MiB", |b| {
        let cluster = ScaliaCluster::builder().build();
        let mut i = 0u64;
        b.iter(|| {
            let key = ObjectKey::new("bench", format!("stream-{i}"));
            i += 1;
            streamed_put(&cluster, &key, 8 * MIB)
        })
    });

    group.bench_function("get_range_1KiB_of_8MiB", |b| {
        let cluster = ScaliaCluster::builder().build();
        let key = ObjectKey::new("bench", "range.bin");
        streamed_put(&cluster, &key, 8 * MIB);
        clear_caches(&cluster);
        b.iter(|| {
            cluster
                .engine(0)
                .get_range(&key, 3 * MIB as u64, 1024)
                .unwrap()
        })
    });

    group.bench_function("get_full_8MiB_uncached", |b| {
        let cluster = ScaliaCluster::builder()
            .cache_capacity(scalia_types::size::ByteSize::ZERO)
            .build();
        let key = ObjectKey::new("bench", "full.bin");
        streamed_put(&cluster, &key, 8 * MIB);
        b.iter(|| cluster.get(&key).unwrap())
    });

    // The legacy whole-object path at the same size, for the memory/latency
    // comparison the baseline records.
    group.bench_function("classic_put_8MiB_single_stripe", |b| {
        let cluster = ScaliaCluster::builder().build();
        // Raising the threshold above the payload keeps the classic path.
        cluster
            .infra()
            .set_streaming_threshold_bytes(64 * MIB as u64);
        let payload = Bytes::from(vec![7u8; 8 * MIB]);
        let mut i = 0u64;
        b.iter(|| {
            let key = ObjectKey::new("bench", format!("classic-{i}"));
            i += 1;
            cluster
                .put(&key, payload.clone(), "application/x-tar", rule(), None)
                .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
