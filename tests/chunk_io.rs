//! Integration tests of the unified parallel chunk-I/O layer: hedged
//! m-of-n reads, write re-placement after provider failures, and the
//! failure-detector feedback loop (§III-D of the paper).
//!
//! Everything runs on *virtual* latency (deterministic microseconds from
//! the per-provider latency models / stall injection), so these tests are
//! exact at any pool size — CI additionally runs them with
//! `SCALIA_POOL_WORKERS=1` to pin the single-worker degenerate case.

use scalia::core::cost::cheapest_read_providers;
use scalia::engine::cluster::ScaliaCluster;
use scalia::prelude::*;
use scalia::providers::backend::StoreOp;
use scalia::providers::descriptor::ProviderDescriptor;
use scalia::types::md5::md5_hex;

fn rule() -> StorageRule {
    StorageRule::new(
        "chunk-io",
        Reliability::from_percent(99.999),
        Reliability::from_percent(99.99),
        ZoneSet::all(),
        0.5,
    )
}

/// The provider the hedged read contacts first: the cheapest-read-ranked
/// chunk holder, computed exactly as the chunk-I/O layer ranks them.
fn ranked_chunk_providers(cluster: &ScaliaCluster, meta: &ObjectMeta) -> Vec<ProviderId> {
    let striping = &meta.striping;
    let descriptors: Vec<ProviderDescriptor> = striping.stripes[0]
        .chunks
        .iter()
        .filter_map(|c| cluster.infra().catalog().get(c.provider))
        .collect();
    let chunk_gb = meta.size.as_gb() / striping.m.max(1) as f64;
    cheapest_read_providers(&descriptors, descriptors.len() as u32, chunk_gb)
        .into_iter()
        .map(|i| striping.stripes[0].chunks[i].provider)
        .collect()
}

#[test]
fn failed_write_is_replaced_and_retried_on_remaining_providers() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);

    // Prime the placement cache with a clean same-class write so the second
    // put reuses the decision that includes the (about to fail) victim.
    let warm_key = ObjectKey::new("retry", "warm.png");
    let warm_meta = engine
        .put(
            &warm_key,
            vec![1u8; 300_000].into(),
            "image/png",
            rule(),
            None,
        )
        .unwrap();
    let victim = warm_meta.striping.stripes[0].chunks[0].provider;

    // The victim's *backend* dies, but the catalog still lists it, so the
    // cached placement will try it first.
    cluster.infra().backend(victim).unwrap().set_down(true);

    let key = ObjectKey::new("retry", "fresh.png");
    let payload = vec![2u8; 300_000];
    let meta = engine
        .put(&key, payload.clone().into(), "image/png", rule(), None)
        .unwrap();

    // The write was re-placed off the failed provider…
    assert!(
        meta.striping.stripes[0]
            .chunks
            .iter()
            .all(|c| c.provider != victim),
        "retried write must avoid the failed provider"
    );
    // …the hard failure marked it unavailable (§III-D3)…
    assert!(!cluster.infra().catalog().is_available(victim));
    // …and the payload is served back intact.
    assert_eq!(engine.get(&key).unwrap(), bytes::Bytes::from(payload));

    // No chunk of the aborted first attempt may survive anywhere: total
    // provider bytes equal exactly the two committed objects' footprints.
    let footprint = |meta: &ObjectMeta| {
        let m = meta.striping.m as u64;
        let shard = meta.size.bytes().div_ceil(m).max(1);
        shard * meta.striping.stripes[0].chunks.len() as u64
    };
    let stored: u64 = cluster
        .infra()
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum();
    assert_eq!(
        stored,
        footprint(&warm_meta) + footprint(&meta),
        "the rolled-back attempt must leave no chunks behind"
    );
}

#[test]
fn hedged_read_survives_a_ranked_provider_killed_mid_lifecycle() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("hedge", "kill.jpg");
    let payload = vec![7u8; 400_000];
    let meta = engine
        .put(&key, payload.clone().into(), "image/jpeg", rule(), None)
        .unwrap();
    assert!(meta.striping.stripes[0].chunks.len() as u32 > meta.striping.m);

    // Kill the provider the read would contact *first* — only its backend,
    // so the read path (not the placement layer) must discover the failure.
    let victim = ranked_chunk_providers(&cluster, &meta)[0];
    cluster.infra().backend(victim).unwrap().set_down(true);
    cluster.caches().iter().for_each(|c| c.clear());

    let data = engine.get(&key).unwrap();
    assert_eq!(data.len(), payload.len());
    assert_eq!(
        md5_hex(&data),
        meta.checksum,
        "bytes must be checksum-exact"
    );

    // §III-D3: the read reported the dead provider instead of silently
    // skipping it.
    assert!(
        !cluster.infra().catalog().is_available(victim),
        "the failure detector must mark the dead provider unavailable"
    );
}

#[test]
fn hedged_read_does_not_wait_out_a_stalled_ranked_provider() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("hedge", "stall.jpg");
    let payload = vec![9u8; 250_000];
    let meta = engine
        .put(&key, payload.clone().into(), "image/jpeg", rule(), None)
        .unwrap();

    // The first-ranked provider stalls for 30 virtual seconds per request.
    const STALL_US: u64 = 30_000_000;
    let stalled = ranked_chunk_providers(&cluster, &meta)[0];
    cluster
        .infra()
        .backend(stalled)
        .unwrap()
        .set_stall_us(STALL_US);
    cluster.caches().iter().for_each(|c| c.clear());

    let reads_before = cluster.infra().io_latency_snapshot(StoreOp::Get).count;
    let data = engine.get(&key).unwrap();
    assert_eq!(md5_hex(&data), meta.checksum);

    // The hedge promoted a parity chunk: the recorded virtual makespan beat
    // the stall by an order of magnitude instead of waiting it out.
    let reads = cluster.infra().io_latency_snapshot(StoreOp::Get);
    assert_eq!(reads.count, reads_before + 1);
    assert!(
        reads.max_us < STALL_US / 10,
        "hedged read took {}µs — it waited out the {}µs stall",
        reads.max_us,
        STALL_US
    );
}

#[test]
fn any_m_of_n_survivor_subset_reconstructs_the_object() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("subsets", "all.bin");
    let payload = vec![5u8; 400_000];
    let meta = engine
        .put(
            &key,
            payload.clone().into(),
            "application/octet-stream",
            rule(),
            None,
        )
        .unwrap();
    let providers: Vec<ProviderId> = meta.striping.stripes[0].providers();
    let n = providers.len();
    let m = meta.striping.m as usize;
    assert!(n > m, "needs parity to make the property non-trivial");

    // Exhaustive property: for every way to kill n − m chunk holders, the
    // read must still reconstruct checksum-exact bytes from the survivors.
    let mut cases = 0;
    for mask in 0u32..(1 << n) {
        if mask.count_ones() as usize != n - m {
            continue;
        }
        cases += 1;
        let killed: Vec<ProviderId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| providers[i])
            .collect();
        for &provider in &killed {
            cluster.infra().backend(provider).unwrap().set_down(true);
        }
        cluster.caches().iter().for_each(|c| c.clear());

        let data = engine
            .get(&key)
            .unwrap_or_else(|e| panic!("survivor subset {mask:b} failed: {e}"));
        assert_eq!(md5_hex(&data), meta.checksum, "subset {mask:b}");

        for &provider in &killed {
            // Restore the backend *and* the catalog entry (reads feed the
            // failure detector, which marks dead providers unavailable).
            cluster.infra().set_provider_down(provider, false);
        }
    }
    assert!(cases >= n, "expected at least n choose (n-m) ≥ n cases");
}

#[test]
fn writes_and_hedged_reads_record_object_level_latency() {
    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);
    let key = ObjectKey::new("lat", "obj.png");
    engine
        .put(&key, vec![3u8; 120_000].into(), "image/png", rule(), None)
        .unwrap();
    cluster.caches().iter().for_each(|c| c.clear());
    engine.get(&key).unwrap();
    engine.delete(&key).unwrap();

    let infra = cluster.infra();
    assert_eq!(infra.io_latency_snapshot(StoreOp::Put).count, 1);
    assert_eq!(infra.io_latency_snapshot(StoreOp::Get).count, 1);
    assert!(infra.io_latency_snapshot(StoreOp::Delete).count >= 1);
}

#[test]
fn stalled_upload_is_hedged_and_the_write_replaced_without_the_straggler() {
    // §III-D3 extended to slow-but-alive providers on the WRITE path: an
    // upload that blows its hedge deadline (observed PUT p95 × multiplier
    // once warm, modelled × multiplier until then) is rolled back and the
    // write re-placed on the remaining providers — a provider stalling
    // anomalously on PUTs cannot hold a write hostage.
    use scalia::engine::chunk_io::{write_hedge_deadline_us, HedgeConfig};
    use scalia::providers::latency::LatencyModel;

    let cluster = ScaliaCluster::builder()
        .datacenters(1)
        .engines_per_datacenter(1)
        .build();
    let engine = cluster.engine(0);

    // Prime the class's placement decision with a clean write; the second
    // same-class put reuses the provider set that includes the (about to
    // stall) victim.
    let warm_meta = engine
        .put(
            &ObjectKey::new("wh", "warm.png"),
            vec![1u8; 200_000].into(),
            "image/png",
            rule(),
            None,
        )
        .unwrap();
    let victim = warm_meta.striping.stripes[0].chunks[0].provider;

    // Every upload so far fed the observed-write window.
    for location in &warm_meta.striping.stripes[0].chunks {
        assert!(
            cluster
                .infra()
                .observed_write_snapshot(location.provider)
                .count
                >= 1,
            "successful uploads must feed the write observation loop"
        );
    }

    // The victim develops a 10-virtual-second stall on every request. The
    // catalog is zero-latency, so the cold write deadline is the 2 ms
    // floor — far below the stall.
    cluster
        .infra()
        .backend(victim)
        .unwrap()
        .set_stall_us(10_000_000);

    let meta = engine
        .put(
            &ObjectKey::new("wh", "during-stall.png"),
            vec![2u8; 200_000].into(),
            "image/png",
            rule(),
            None,
        )
        .unwrap();
    assert!(
        meta.striping.stripes[0]
            .chunks
            .iter()
            .all(|c| c.provider != victim),
        "the stalled provider must be excluded from the re-placed write"
    );
    // The re-placed object is fully readable.
    cluster.caches().iter().for_each(|c| c.clear());
    assert_eq!(
        cluster
            .get(&ObjectKey::new("wh", "during-stall.png"))
            .unwrap()
            .len(),
        200_000
    );
    // No chunk of the failed attempt leaked onto the victim: its footprint
    // is exactly the warm object's single chunk.
    let victim_backend = cluster.infra().backend(victim).unwrap();
    assert_eq!(victim_backend.object_count(), 1, "only the warm chunk");

    // Deadline adaptation: once the observed write window is warm, the
    // deadline is grounded in the OBSERVED p95 (× multiplier) instead of
    // the advertised model. A provider advertising 1 ms but actually
    // writing at ~80 ms gets a realistic deadline.
    let infra = cluster.infra();
    let probe = warm_meta.striping.stripes[0].chunks[1].provider;
    let config = HedgeConfig::default();
    let advertised = LatencyModel::new(1, 0, 0, 7); // 1 ms, no jitter
    let cold = write_hedge_deadline_us(infra, probe, &advertised, 100_000, &config);
    assert_eq!(cold, 3_000, "cold: modelled 1 ms × 3");
    for _ in 0..64 {
        infra.record_provider_write_latency(probe, 80_000);
    }
    let warm = write_hedge_deadline_us(infra, probe, &advertised, 100_000, &config);
    assert!(
        warm >= 3 * 80_000,
        "warm deadline {warm}µs must follow the observed p95, not the model"
    );
    // The fixed-deadline baseline ignores observations entirely.
    assert_eq!(
        write_hedge_deadline_us(
            infra,
            probe,
            &advertised,
            100_000,
            &HedgeConfig::fixed_deadline()
        ),
        cold
    );
}
