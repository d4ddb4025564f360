//! One replay of a workload ("rep"): set-up, the timed open-loop replay
//! through the queued front end, the outcome check and the counters.
//!
//! One thread replays everything. Arrivals are fixed by the workload; it
//! submits them in order as fast as the CPU allows, and control-plane
//! events run inline at their virtual time (after `advance_to`).

use crate::trace::{SpanId, Tracer};
use crate::workloads::{register, Event, Workload, CACHE_BYTES};
use bytes::Bytes;
use scalia::core::classify::ObjectClass;
use scalia::core::cost::PredictedUsage;
use scalia::core::placement::PlacementEngine;
use scalia::engine::cluster::ScaliaCluster;
use scalia::engine::engine::DEFAULT_DECISION_PERIODS;
use scalia::engine::repair::repair_provider;
use scalia::engine::OptimizationReport;
use scalia::erasure::codec::{decode_object, encode_object};
use scalia::frontend::{FrontendService, OpKind, OpOutcome, OpStatus, S3Op, TenantId};
use scalia::providers::backend::StoreOp;
use scalia::providers::catalog::cheapstor;
use scalia::sim::traffic::tenant_rule;
use scalia::types::error::ScaliaError;
use scalia::types::ids::ProviderId;
use scalia::types::md5::md5_hex;
use scalia::types::object::ObjectKey;
use scalia::types::size::ByteSize;
use scalia::types::time::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Side probes per op kind and rep are thinned to about this many.
const PROBES_PER_KIND: usize = 1_500;

/// Outcome counters of one rep, taken from the front end's per-op record.
#[derive(Default, Clone)]
pub struct Counts {
    pub submitted: u64,
    pub completed: u64,
    /// Ops that executed and failed, excluding correct `ObjectNotFound`.
    pub failed: u64,
    /// Ops refused at admission or abandoned at dispatch.
    pub refused: u64,
    /// Gets, range reads and deletes of keys the trace itself deleted.
    pub not_found_ok: u64,
    /// Ops of tenants that state a latency limit, and how many of them
    /// failed, were refused or completed past it.
    pub limited: u64,
    pub sla_miss: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// Per-layer counters read from the program's public counters after the
/// timed phase (deltas over the timed phase where set-up also counts).
#[derive(Default, Clone)]
pub struct LayerCounts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub placement_hits: u64,
    pub placement_misses: u64,
    pub chunk_gets: u64,
    pub chunk_puts: u64,
    pub puts_done: u64,
    pub peak_queued: u64,
    pub peak_in_flight: u64,
    pub rejected_queue: u64,
    pub pending_deletes: u64,
    pub pending_hints: u64,
    pub virt_get_p50_us: u64,
    pub virt_get_p99_us: u64,
    pub virt_put_p99_us: u64,
    pub optimizer: OptimizationReport,
    pub repaired: u64,
    pub dead_lettered: u64,
    pub repair_bytes: u64,
}

/// Everything one rep produces.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Wall time of each `submit` call, ns (untraced reps only).
    pub submit_ns: Vec<u64>,
    /// Modelled latency of each completed op, µs.
    pub virt_us: Vec<u64>,
    pub digest: String,
    pub cost_usd: f64,
    pub stored_bytes_ratio: f64,
    pub counts: Counts,
    pub layer: LayerCounts,
    /// Every correctness failure found (empty = correct).
    pub problems: Vec<String>,
    pub tracer: Option<Tracer>,
    /// Traced reps: total side-probe time inside the timed phase, ns.
    pub probe_ns: u64,
    /// Traced reps: bytes hashed / coded by the probes.
    pub md5_bytes: u64,
    pub erasure_bytes: u64,
    /// Traced reps: span ids of gets served from the cache.
    pub cache_hit_spans: Vec<SpanId>,
}

/// What a key may hold: one state normally, two after a failed put (the
/// write may or may not have landed). `None` = absent.
type Candidates = Vec<Option<(u8, u64)>>;

fn store_op_counts(cluster: &ScaliaCluster, op: StoreOp) -> u64 {
    cluster
        .infra()
        .backends()
        .iter()
        .map(|b| b.latency_snapshot(op).count)
        .sum()
}

fn cache_stats(cluster: &ScaliaCluster) -> (u64, u64) {
    cluster
        .caches()
        .iter()
        .map(|c| c.stats())
        .fold((0, 0), |(h, m), (ch, cm)| (h + ch, m + cm))
}

/// State threaded through the timed phase of one rep.
struct Replay<'a> {
    w: &'a Workload,
    cluster: Arc<ScaliaCluster>,
    fe: FrontendService,
    provider_ids: Vec<ProviderId>,
    tracer: Option<Tracer>,
    root: Option<SpanId>,
    layer: LayerCounts,
    probe_ns: u64,
    md5_bytes: u64,
    erasure_bytes: u64,
    cache_hit_spans: Vec<SpanId>,
    /// Probe every `stride`-th op of a kind (by op id).
    probe_stride: BTreeMap<&'static str, u64>,
    placement: PlacementEngine,
}

fn kind_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Put => "engine.put",
        OpKind::Get => "engine.get",
        OpKind::GetRange => "engine.get_range",
        OpKind::Delete => "engine.delete",
        OpKind::List => "engine.list",
    }
}

impl Replay<'_> {
    fn apply(&mut self, at_us: u64, event: Event) {
        self.traced_fe_call("frontend.advance", None, |fe| fe.advance_to(at_us));
        let cluster = Arc::clone(&self.cluster);
        let infra = cluster.infra().clone();
        match event {
            Event::Tick => {
                self.span("cluster.tick", || {
                    cluster.tick(SimTime::from_secs(at_us / 1_000_000))
                });
                let drain = cluster.last_repair_drain();
                self.layer.repaired += drain.repaired as u64;
                self.layer.dead_lettered = drain.dead_lettered as u64;
                self.layer.repair_bytes += drain.bytes_moved;
            }
            Event::Optimize => {
                let report = self.span("optimizer.cycle", || cluster.run_optimization(false));
                self.layer.optimizer =
                    std::mem::take(&mut self.layer.optimizer).merged_with(report);
            }
            Event::Down(i) => infra.set_provider_down(self.provider_ids[i], true),
            Event::Up(i) => infra.set_provider_down(self.provider_ids[i], false),
            Event::Repair(i) => {
                let victim = self.provider_ids[i];
                let engine = Arc::clone(cluster.engine(0));
                let report = self.span("repair.provider", || {
                    repair_provider(&engine, &infra, victim, &PlacementEngine::new())
                });
                if let Ok(report) = report {
                    self.layer.repaired += report.objects_repaired as u64;
                }
            }
            Event::PriceDrop => {
                infra.register_provider(cheapstor(ProviderId::new(0)));
                let report = self.span("optimizer.cycle", || cluster.run_optimization(true));
                self.layer.optimizer =
                    std::mem::take(&mut self.layer.optimizer).merged_with(report);
            }
        }
    }

    /// Runs `f`, as an in-path span under the root when tracing.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_mut() {
            Some(tracer) => tracer.time(name, self.root, None, false, f).1,
            None => f(),
        }
    }

    /// Calls into the front end; when tracing, records the call as a span
    /// and, if exactly one op executed inside it, that op as an engine
    /// child span (plus side probes on the op's inputs).
    fn traced_fe_call(
        &mut self,
        name: &'static str,
        op_id: Option<u64>,
        f: impl FnOnce(&mut FrontendService),
    ) {
        let Some(tracer) = self.tracer.as_mut() else {
            f(&mut self.fe);
            return;
        };
        let before = self.fe.outcomes().len();
        let (hits_before, _) = cache_stats(&self.cluster);
        let start = tracer.now_ns();
        f(&mut self.fe);
        let end = tracer.now_ns();
        let id = tracer.record(name, start, end, self.root, op_id, false);
        let executed: Vec<OpOutcome> = self.fe.outcomes()[before..]
            .iter()
            .filter(|o| {
                matches!(
                    o.status,
                    OpStatus::Completed { .. } | OpStatus::Failed { .. }
                )
            })
            .cloned()
            .collect();
        match executed.as_slice() {
            [] => {}
            [one] => {
                let child = tracer.record(
                    kind_name(one.kind),
                    start,
                    end,
                    Some(id),
                    Some(one.op_id),
                    false,
                );
                let hit = cache_stats(&self.cluster).0 > hits_before;
                if hit && one.kind == OpKind::Get {
                    self.cache_hit_spans.push(child);
                }
                if !hit && matches!(one.status, OpStatus::Completed { .. }) {
                    self.probe(child, one);
                }
            }
            _ => {
                tracer.record("engine.batch", start, end, Some(id), None, false);
            }
        }
    }

    fn due_for_probe(&self, kind: &'static str, op_id: u64) -> bool {
        self.probe_stride
            .get(kind)
            .is_some_and(|&stride| op_id.is_multiple_of(stride))
    }

    /// Side probes: the hidden layers' own public entry points, timed on
    /// the same op's inputs right after the op.
    fn probe(&mut self, parent: SpanId, outcome: &OpOutcome) {
        let kind = kind_name(outcome.kind);
        if !self.due_for_probe(kind, outcome.op_id) {
            return;
        }
        let op_id = Some(outcome.op_id);
        let op = &self.w.ops[outcome.op_id as usize];
        let engine = Arc::clone(self.cluster.engine(0));
        let infra = Arc::clone(self.cluster.infra());
        let tracer = self.tracer.as_mut().expect("probes run only when tracing");
        let t0 = tracer.now_ns();
        match &op.op {
            S3Op::Get { key } => {
                let row = key.row_key();
                let dc = engine.datacenter();
                tracer.time("metastore.get_latest", Some(parent), op_id, true, || {
                    infra.database().get_latest(dc, &row, "meta")
                });
                let (_, meta) =
                    tracer.time("engine.read_metadata", Some(parent), op_id, true, || {
                        engine.read_metadata(key)
                    });
                if let Ok(meta) = meta {
                    let _ = tracer.time(
                        "engine.fetch_and_reassemble",
                        Some(parent),
                        op_id,
                        true,
                        || engine.fetch_and_reassemble(&meta),
                    );
                    // The probe's fetch must not be charged to the next op.
                    infra.take_last_io_latency(StoreOp::Get);
                }
            }
            S3Op::Put {
                key: _,
                size,
                fill,
                mime,
            } => {
                let payload = vec![*fill; *size as usize];
                tracer.time("md5.object", Some(parent), op_id, true, || {
                    md5_hex(&payload)
                });
                self.md5_bytes += *size;
                let size_b = ByteSize::from_bytes(*size);
                let class = ObjectClass::of(mime, size_b);
                let period_hours = infra.sampling_period().as_hours();
                let usage = match infra
                    .statistics(engine.datacenter())
                    .mean_class_usage(class.id())
                {
                    Some(mean) => PredictedUsage::from_class_usage(
                        size_b,
                        &mean,
                        DEFAULT_DECISION_PERIODS,
                        period_hours,
                    ),
                    None => PredictedUsage::storage_only(
                        size_b,
                        DEFAULT_DECISION_PERIODS as f64 * period_hours,
                    ),
                };
                let rule = tenant_rule(&self.w.tenants[op.tenant].name);
                let placement = &self.placement;
                let (_, cached) =
                    tracer.time("placement_cache.lookup", Some(parent), op_id, true, || {
                        infra.best_placement_cached(placement, &rule, class.id(), &usage)
                    });
                let providers = infra.catalog().available();
                let (_, searched) =
                    tracer.time("placement.search", Some(parent), op_id, true, || {
                        placement.best_placement(&rule, &usage, &providers)
                    });
                if let Ok(decision) = cached.or(searched) {
                    let params = decision.placement.erasure_params();
                    // Large payloads are coded stripe by stripe, as the
                    // streaming write path does.
                    let piece = if *size > infra.streaming_threshold_bytes() {
                        infra.stripe_size_bytes() as usize
                    } else {
                        payload.len().max(1)
                    };
                    let (_, encoded) =
                        tracer.time("erasure.encode", Some(parent), op_id, true, || {
                            payload
                                .chunks(piece)
                                .map(|stripe| encode_object(stripe, params))
                                .collect::<Vec<_>>()
                        });
                    // Decode from all but the first chunk, so that a data
                    // shard really is reconstructed when n > m.
                    let skip = usize::from(params.n > params.m);
                    tracer.time("erasure.decode", Some(parent), op_id, true, || {
                        for object in encoded.iter().flatten() {
                            let _ =
                                decode_object(&object.chunks[skip..], params, object.original_len);
                        }
                    });
                    self.erasure_bytes += 2 * *size;
                }
            }
            _ => {}
        }
        self.probe_ns += tracer.now_ns() - t0;
    }
}

/// Runs one rep of `w`. `traced` records spans and runs the side probes.
pub fn run_rep(w: &Workload, traced: bool) -> Rep {
    let ops: Vec<(u64, usize, S3Op)> = w
        .ops
        .iter()
        .map(|o| (o.at_us, o.tenant, o.op.clone()))
        .collect();
    let mut problems = Vec::new();

    // ---- set-up: cluster build plus prepopulation --------------------------
    let t0 = Instant::now();
    let (catalog, provider_ids) = register(&w.providers);
    let cluster = Arc::new(
        ScaliaCluster::builder()
            .catalog(catalog)
            .datacenters(1)
            .engines_per_datacenter(2)
            .cache_capacity(ByteSize::from_bytes(CACHE_BYTES))
            .build(),
    );
    let mut fe = FrontendService::new(Arc::clone(&cluster), w.frontend.clone());
    let tenant_ids: Vec<TenantId> = w
        .tenants
        .iter()
        .map(|t| fe.register_tenant(&t.name, t.weight, t.sla_us, tenant_rule(&t.name)))
        .collect();
    for o in &w.objects {
        let data = Bytes::from(vec![o.fill; o.size as usize]);
        if let Err(e) = fe.put_object(tenant_ids[o.tenant], &o.key, data, &o.mime) {
            problems.push(format!("prepopulate {}: {e}", o.key));
        }
    }
    for (key, data) in &w.sentinels {
        if let Err(e) = fe.put_object(
            tenant_ids[0],
            key,
            Bytes::from(data.clone()),
            "application/octet-stream",
        ) {
            problems.push(format!("sentinel {key}: {e}"));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // ---- timed phase -----------------------------------------------------
    let (hits0, misses0) = cache_stats(&cluster);
    let pc0 = cluster.placement_cache_stats();
    let gets0 = store_op_counts(&cluster, StoreOp::Get);
    let puts0 = store_op_counts(&cluster, StoreOp::Put);
    let mut probe_stride = BTreeMap::new();
    for (kind, matches) in [("engine.get", OpKind::Get), ("engine.put", OpKind::Put)] {
        let n = w.ops.iter().filter(|o| o.op.kind() == matches).count();
        probe_stride.insert(kind, (n / PROBES_PER_KIND).max(1) as u64);
    }
    let mut replay = Replay {
        w,
        cluster: Arc::clone(&cluster),
        fe,
        provider_ids,
        tracer: traced.then(Tracer::new),
        root: None,
        layer: LayerCounts::default(),
        probe_ns: 0,
        md5_bytes: 0,
        erasure_bytes: 0,
        cache_hit_spans: Vec::new(),
        probe_stride,
        placement: PlacementEngine::new(),
    };
    let mut submit_ns = Vec::with_capacity(if traced { 0 } else { ops.len() });
    let root_start = replay.tracer.as_ref().map(Tracer::now_ns);
    if let Some(tracer) = replay.tracer.as_mut() {
        // Placeholder root; its end is patched after the replay.
        replay.root = Some(tracer.record("replay", root_start.unwrap_or(0), 0, None, None, false));
    }
    let mut next_event = 0;
    let t1 = Instant::now();
    for (op_id, (at_us, tenant, op)) in ops.into_iter().enumerate() {
        while next_event < w.events.len() && w.events[next_event].0 <= at_us {
            let (at, event) = w.events[next_event];
            replay.apply(at, event);
            next_event += 1;
        }
        let tid = tenant_ids[tenant];
        if traced {
            // Run what is due first, so the submit span holds only
            // admission and, if a lane is free, this op.
            replay.traced_fe_call("frontend.advance", None, |fe| fe.advance_to(at_us));
            replay.traced_fe_call("frontend.submit", Some(op_id as u64), |fe| {
                fe.submit(at_us, tid, op);
            });
        } else {
            let s = Instant::now();
            replay.fe.submit(at_us, tid, op);
            submit_ns.push(s.elapsed().as_nanos() as u64);
        }
    }
    while next_event < w.events.len() {
        let (at, event) = w.events[next_event];
        replay.apply(at, event);
        next_event += 1;
    }
    replay.traced_fe_call("frontend.drain", None, |fe| fe.drain());
    let wall_s = t1.elapsed().as_secs_f64();
    if let (Some(tracer), Some(root)) = (replay.tracer.as_mut(), replay.root) {
        tracer.spans[root].end_ns = tracer.now_ns();
    }

    // ---- counters, before verification reads touch anything ---------------
    let infra = cluster.infra().clone();
    let (hits1, misses1) = cache_stats(&cluster);
    let pc1 = cluster.placement_cache_stats();
    let report = replay.fe.report();
    let mut layer = std::mem::take(&mut replay.layer);
    layer.cache_hits = hits1 - hits0;
    layer.cache_misses = misses1 - misses0;
    layer.placement_hits = pc1.hits - pc0.hits;
    layer.placement_misses = pc1.misses - pc0.misses;
    layer.chunk_gets = store_op_counts(&cluster, StoreOp::Get) - gets0;
    layer.chunk_puts = store_op_counts(&cluster, StoreOp::Put) - puts0;
    layer.peak_queued = report.peak_queued as u64;
    layer.peak_in_flight = report.peak_in_flight as u64;
    layer.rejected_queue = report.tenants.iter().map(|t| t.rejected_queue).sum();
    layer.pending_deletes = infra.pending_delete_count() as u64;
    layer.pending_hints = infra.database().pending_hints() as u64;
    let get_snap = infra.io_latency_snapshot(StoreOp::Get);
    layer.virt_get_p50_us = get_snap.p50_us;
    layer.virt_get_p99_us = get_snap.p99_us;
    layer.virt_put_p99_us = infra.io_latency_snapshot(StoreOp::Put).p99_us;
    let cost_usd = cluster.total_cost().dollars();
    let stored_bytes: u64 = infra
        .backends()
        .iter()
        .map(|b| b.stored_bytes().bytes())
        .sum();

    // ---- outcome check ---------------------------------------------------
    let fe = &replay.fe;
    let mut model: BTreeMap<ObjectKey, Candidates> = w
        .objects
        .iter()
        .map(|o| (o.key.clone(), vec![Some((o.fill, o.size))]))
        .collect();
    let mut counts = Counts::default();
    let mut virt_us = Vec::with_capacity(fe.outcomes().len());
    let mut digest_lines = String::new();
    digest_lines.push_str(&report.digest());
    for outcome in fe.outcomes() {
        digest_lines.push_str(&format!(
            "\n{}|{:?}|{:?}",
            outcome.op_id, outcome.kind, outcome.status
        ));
        let op = &w.ops[outcome.op_id as usize];
        let limited = w.tenants[op.tenant].sla_us > 0;
        counts.submitted += 1;
        counts.limited += u64::from(limited);
        let key = outcome.key.clone();
        let state = key
            .as_ref()
            .map(|k| model.entry(k.clone()).or_insert_with(|| vec![None]).clone());
        let mut miss = false;
        match &outcome.status {
            OpStatus::Completed {
                latency_us,
                bytes_out,
            } => {
                counts.completed += 1;
                virt_us.push(*latency_us);
                miss = *latency_us > w.latency_limit_us;
                let state = state.unwrap_or_default();
                let sizes: Vec<u64> = state.iter().flatten().map(|&(_, s)| s).collect();
                match &op.op {
                    S3Op::Put { size, fill, .. } => {
                        counts.bytes_in += size;
                        model.insert(
                            key.clone().expect("put has a key"),
                            vec![Some((*fill, *size))],
                        );
                    }
                    S3Op::Get { .. } => {
                        counts.bytes_out += bytes_out;
                        if !sizes.contains(bytes_out) {
                            problems.push(format!(
                                "op {}: get returned {bytes_out} bytes, expected one of {sizes:?}",
                                outcome.op_id
                            ));
                        }
                    }
                    S3Op::GetRange { offset, len, .. } => {
                        counts.bytes_out += bytes_out;
                        let want: Vec<u64> = sizes
                            .iter()
                            .map(|&s| offset.saturating_add(*len).min(s).saturating_sub(*offset))
                            .collect();
                        if !want.contains(bytes_out) {
                            problems.push(format!(
                                "op {}: range returned {bytes_out} bytes, expected one of {want:?}",
                                outcome.op_id
                            ));
                        }
                    }
                    S3Op::Delete { .. } => {
                        if sizes.is_empty() {
                            problems.push(format!(
                                "op {}: deleted a key the trace had deleted",
                                outcome.op_id
                            ));
                        }
                        model.insert(key.clone().expect("delete has a key"), vec![None]);
                    }
                    S3Op::List { container } => {
                        let prefix = format!("{container}/");
                        let (sure, maybe) = model
                            .iter()
                            .filter(|(k, _)| k.container == *container)
                            .fold((0u64, 0u64), |(sure, maybe), (_, c)| {
                                let some = c.iter().filter(|x| x.is_some()).count();
                                (
                                    sure + u64::from(some == c.len()),
                                    maybe + u64::from(some > 0),
                                )
                            });
                        if *bytes_out < sure || *bytes_out > maybe {
                            problems.push(format!("op {}: list {prefix} gave {bytes_out} keys, expected {sure}..={maybe}", outcome.op_id));
                        }
                    }
                }
            }
            OpStatus::Failed { error } => {
                let absent_possible = state.as_ref().is_some_and(|c| c.contains(&None));
                let is_read_or_delete = matches!(
                    outcome.kind,
                    OpKind::Get | OpKind::GetRange | OpKind::Delete
                );
                if matches!(error, ScaliaError::ObjectNotFound(_)) && is_read_or_delete {
                    if absent_possible {
                        counts.not_found_ok += 1;
                    } else {
                        problems.push(format!("op {}: live key answered {error}", outcome.op_id));
                        counts.failed += 1;
                        miss = true;
                    }
                } else {
                    counts.failed += 1;
                    miss = true;
                    if let (S3Op::Put { size, fill, .. }, Some(k)) = (&op.op, key.clone()) {
                        let mut c = state.unwrap_or_default();
                        c.push(Some((*fill, *size)));
                        model.insert(k, c);
                    }
                }
            }
            OpStatus::RejectedQueue | OpStatus::RejectedDeadline { .. } => {
                counts.refused += 1;
                miss = true;
            }
        }
        counts.sla_miss += u64::from(limited && miss);
    }
    let digest = md5_hex(digest_lines.as_bytes());

    let total_submitted: u64 = report.tenants.iter().map(|t| t.submitted).sum();
    let accounted: u64 = report
        .tenants
        .iter()
        .map(|t| t.completed + t.failed + t.rejected_queue + t.rejected_deadline)
        .sum();
    let tallied = counts.completed + counts.failed + counts.refused + counts.not_found_ok;
    if total_submitted != accounted
        || total_submitted != w.ops.len() as u64
        || counts.submitted != total_submitted
        || tallied != counts.submitted
    {
        problems.push(format!(
            "accounting: trace {} ops, submitted {total_submitted}, completed+failed+refused {accounted}, outcomes {}",
            w.ops.len(),
            counts.submitted
        ));
    }

    // Every key reads back as the model says: byte-exact, or ObjectNotFound.
    let mut live_bytes = 0u64;
    for (key, candidates) in &model {
        match cluster.get(key) {
            Ok(data) => {
                let matched = candidates.iter().flatten().find(|&&(fill, size)| {
                    data.len() as u64 == size && data.iter().all(|&b| b == fill)
                });
                match matched {
                    Some(&(_, size)) => live_bytes += size,
                    None => problems.push(format!(
                        "{key}: read-back differs from every acknowledged write"
                    )),
                }
            }
            Err(ScaliaError::ObjectNotFound(_)) if candidates.contains(&None) => {}
            Err(e) => problems.push(format!("{key}: read-back failed: {e}")),
        }
    }
    // Sentinels: through the cache-less decode path, whole and by range.
    let engine = cluster.engine(0);
    for (key, data) in &w.sentinels {
        live_bytes += data.len() as u64;
        let decoded = engine
            .read_metadata(key)
            .and_then(|meta| engine.fetch_and_reassemble(&meta));
        if !matches!(&decoded, Ok(d) if d[..] == data[..]) {
            problems.push(format!(
                "sentinel {key}: decode differs from the written bytes"
            ));
        }
        let (offset, len) = (data.len() as u64 / 3, (data.len() as u64 / 3).max(1));
        let range = engine.get_range(key, offset, len);
        let want = &data[offset as usize..(offset + len).min(data.len() as u64) as usize];
        if !matches!(&range, Ok(r) if r[..] == *want) {
            problems.push(format!(
                "sentinel {key}: range read differs from the written bytes"
            ));
        }
    }
    let stored_bytes_ratio = stored_bytes as f64 / live_bytes.max(1) as f64;

    layer.puts_done = fe
        .outcomes()
        .iter()
        .filter(|o| o.kind == OpKind::Put && matches!(o.status, OpStatus::Completed { .. }))
        .count() as u64;

    Rep {
        setup_s,
        wall_s,
        submit_ns,
        virt_us,
        digest,
        cost_usd,
        stored_bytes_ratio,
        counts,
        layer,
        problems,
        probe_ns: replay.probe_ns,
        md5_bytes: replay.md5_bytes,
        erasure_bytes: replay.erasure_bytes,
        cache_hit_spans: replay.cache_hit_spans,
        tracer: replay.tracer,
    }
}
