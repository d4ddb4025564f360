//! The repository benchmark: one command runs one workload through the
//! public API of the Scalia workspace, checks its outputs, and prints every
//! metric by name with its unit. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot_small --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`. A run that fails any correctness check prints
//! `"correct": false` with no metrics and exits with status 1.

mod run;
mod trace;
mod workloads;

use run::Rep;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// A run ends after the rep that crosses `--seconds`, or earlier when the
/// next rep would end past this wall-clock budget.
const MAX_RUN_S: f64 = 150.0;
const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Nearest-rank percentile of `values` (sorted in place).
fn percentile(values: &mut [u64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered `name → (value, unit)` list.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push('}');
        out
    }
}

/// The end-to-end metrics, from the untraced reps. Every rep replays the
/// same trace, so percentiles pool the samples of all reps (a percentile's
/// position in the op mix does not depend on the rep count); rates, cost
/// and set-up are the median over reps.
fn end_to_end(reps: &[&Rep], first_rep_rss_mib: f64) -> Metrics {
    let mut m = Metrics::default();
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>());
    let mut submit_ns: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.submit_ns.iter().copied())
        .collect();
    m.put("setup_s", per_rep(&|r| r.setup_s), "s");
    m.put(
        "wall_ops_per_s",
        per_rep(&|r| ratio(r.counts.submitted as f64, r.wall_s)),
        "ops/s",
    );
    m.put(
        "wall_mib_per_s",
        per_rep(&|r| {
            ratio(
                (r.counts.bytes_in + r.counts.bytes_out) as f64 / MIB,
                r.wall_s,
            )
        }),
        "MiB/s",
    );
    m.put(
        "wall_op_p50_us",
        percentile(&mut submit_ns, 50.0) / 1e3,
        "us",
    );
    m.put(
        "wall_op_p99_us",
        percentile(&mut submit_ns, 99.0) / 1e3,
        "us",
    );
    m.put("cost_usd", per_rep(&|r| r.cost_usd), "USD");
    m.put(
        "stored_bytes_ratio",
        per_rep(&|r| r.stored_bytes_ratio),
        "ratio",
    );
    m.put("peak_rss_mib", first_rep_rss_mib, "MiB");
    m
}

/// Percentile of the modelled latency of completed ops, pooled over reps.
fn virt_percentile(reps: &[&Rep], p: f64) -> f64 {
    let mut virt: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.virt_us.iter().copied())
        .collect();
    percentile(&mut virt, p)
}

/// `error_rate` and `sla_miss_rate` of the untraced reps.
fn rates(reps: &[&Rep]) -> (f64, f64) {
    let sum = |f: fn(&Rep) -> u64| reps.iter().map(|r| f(r)).sum::<u64>() as f64;
    let submitted = sum(|r| r.counts.submitted);
    let error_rate = ratio(sum(|r| r.counts.failed + r.counts.refused), submitted);
    let sla_miss_rate = ratio(sum(|r| r.counts.sla_miss), sum(|r| r.counts.limited));
    (error_rate, sla_miss_rate)
}

/// The per-layer metrics: timings from the traced reps, counts from the
/// first untraced rep (the same seed and trace).
fn per_layer(untraced: &[&Rep], traced: &[&Rep]) -> Metrics {
    let mut m = Metrics::default();
    let counted = untraced[0];
    let c = &counted.layer;
    let spans = |name: &str| -> Vec<u64> {
        traced
            .iter()
            .flat_map(|r| r.tracer.as_ref().expect("traced rep").durations(name))
            .collect()
    };
    let us = |name: &str, p: f64| percentile(&mut spans(name), p) / 1e3;
    let total_ms = |name: &str| spans(name).iter().sum::<u64>() as f64 / 1e6;

    // Front end. A `submit` span holds admission plus the op itself when a
    // lane was free; the front end's own cost is measured on the submits
    // that ran no op (the op queued behind busy lanes).
    let mut admit_ns = Vec::new();
    let mut self_by_layer = std::collections::BTreeMap::<&str, u64>::new();
    let (mut replay_ns, mut probe_ns) = (0u64, 0u64);
    let mut cache_hit_ns = Vec::new();
    for rep in traced {
        let tracer = rep.tracer.as_ref().expect("traced rep");
        let parents: std::collections::BTreeSet<usize> = tracer
            .spans
            .iter()
            .filter(|s| !s.probe)
            .filter_map(|s| s.parent)
            .collect();
        for (id, span) in tracer.spans.iter().enumerate() {
            if span.name == "frontend.submit" && !parents.contains(&id) {
                admit_ns.push(span.dur_ns());
            }
        }
        for (name, ns) in tracer.self_time_by_name() {
            let layer = match name {
                "replay" => "replay_loop",
                n if n.starts_with("frontend.") => "frontend",
                n if n.starts_with("engine.") => "engine",
                "repair.provider" => "repair",
                _ => "tick_optimizer",
            };
            *self_by_layer.entry(layer).or_insert(0) += ns;
        }
        replay_ns += tracer.spans.first().map_or(0, trace::Span::dur_ns);
        probe_ns += rep.probe_ns;
        cache_hit_ns.extend(
            rep.cache_hit_spans
                .iter()
                .map(|&id| tracer.spans[id].dur_ns()),
        );
    }
    m.put("frontend.submit_us_p50", us("frontend.submit", 50.0), "us");
    m.put("frontend.submit_us_p99", us("frontend.submit", 99.0), "us");
    m.put(
        "frontend.admit_us_p50",
        percentile(&mut admit_ns, 50.0) / 1e3,
        "us",
    );
    m.put("frontend.admit_samples", admit_ns.len() as f64, "count");
    m.put("frontend.rejected_queue", c.rejected_queue as f64, "count");
    m.put("frontend.peak_queued", c.peak_queued as f64, "count");
    m.put("frontend.peak_in_flight", c.peak_in_flight as f64, "count");

    for (kind, name) in [
        ("engine.put", "engine.put_us"),
        ("engine.get", "engine.get_us"),
        ("engine.get_range", "engine.get_range_us"),
    ] {
        m.put(&format!("{name}_p50"), us(kind, 50.0), "us");
        m.put(&format!("{name}_p99"), us(kind, 99.0), "us");
    }
    m.put("engine.delete_us_p50", us("engine.delete", 50.0), "us");
    m.put("engine.list_us_p50", us("engine.list", 50.0), "us");

    let lookups = (c.cache_hits + c.cache_misses) as f64;
    m.put(
        "cache.hit_ratio",
        ratio(c.cache_hits as f64, lookups),
        "ratio",
    );
    m.put("cache.lookups", lookups, "count");
    m.put(
        "cache.get_us_p50",
        percentile(&mut cache_hit_ns, 50.0) / 1e3,
        "us",
    );

    m.put(
        "engine.read_metadata_us_p50",
        us("engine.read_metadata", 50.0),
        "us",
    );
    m.put(
        "engine.read_metadata_us_p99",
        us("engine.read_metadata", 99.0),
        "us",
    );
    m.put(
        "metastore.get_latest_us_p50",
        us("metastore.get_latest", 50.0),
        "us",
    );
    m.put("metastore.pending_hints", c.pending_hints as f64, "count");

    let md5_bytes: u64 = traced.iter().map(|r| r.md5_bytes).sum();
    let erasure_bytes: u64 = traced.iter().map(|r| r.erasure_bytes).sum();
    let md5_ns = spans("md5.object").iter().sum::<u64>() as f64;
    let erasure_ns = (spans("erasure.encode").iter().sum::<u64>()
        + spans("erasure.decode").iter().sum::<u64>()) as f64;
    m.put(
        "md5.mib_per_s",
        ratio(md5_bytes as f64 / MIB, md5_ns / 1e9),
        "MiB/s",
    );
    m.put("md5.us_per_put_p50", us("md5.object", 50.0), "us");
    m.put("erasure.encode_us_p50", us("erasure.encode", 50.0), "us");
    m.put("erasure.decode_us_p50", us("erasure.decode", 50.0), "us");
    m.put(
        "erasure.mib_per_s",
        ratio(erasure_bytes as f64 / MIB, erasure_ns / 1e9),
        "MiB/s",
    );
    let tier = match scalia::erasure::gf256::active_kernel().name() {
        "gfni" => 3.0,
        "avx2" => 2.0,
        _ => 1.0,
    };
    m.put("erasure.kernel_tier", tier, "tier");

    m.put(
        "engine.fetch_and_reassemble_us_p50",
        us("engine.fetch_and_reassemble", 50.0),
        "us",
    );
    m.put(
        "engine.fetch_and_reassemble_us_p99",
        us("engine.fetch_and_reassemble", 99.0),
        "us",
    );
    let uncached_reads = c.cache_misses as f64;
    m.put(
        "chunk_io.chunk_gets_per_uncached_get",
        ratio(c.chunk_gets as f64, uncached_reads),
        "ratio",
    );
    m.put(
        "chunk_io.chunk_puts_per_put",
        ratio(c.chunk_puts as f64, c.puts_done as f64),
        "ratio",
    );

    m.put("providers.virt_get_us_p50", c.virt_get_p50_us as f64, "us");
    m.put("providers.virt_get_us_p99", c.virt_get_p99_us as f64, "us");
    m.put("providers.virt_put_us_p99", c.virt_put_p99_us as f64, "us");
    m.put(
        "providers.pending_deletes",
        c.pending_deletes as f64,
        "count",
    );

    m.put(
        "placement.search_us_p50",
        us("placement.search", 50.0),
        "us",
    );
    m.put(
        "placement.search_us_p99",
        us("placement.search", 99.0),
        "us",
    );
    let placement_lookups = (c.placement_hits + c.placement_misses) as f64;
    m.put(
        "placement_cache.hit_ratio",
        ratio(c.placement_hits as f64, placement_lookups),
        "ratio",
    );
    m.put("placement_cache.lookups", placement_lookups, "count");

    m.put("cluster.tick_ms_p50", us("cluster.tick", 50.0) / 1e3, "ms");
    m.put("cluster.tick_ms_total", total_ms("cluster.tick"), "ms");
    m.put(
        "optimizer.cycle_ms_p50",
        us("optimizer.cycle", 50.0) / 1e3,
        "ms",
    );
    m.put(
        "optimizer.cycle_ms_total",
        total_ms("optimizer.cycle"),
        "ms",
    );
    m.put(
        "optimizer.searches_executed",
        c.optimizer.searches_executed as f64,
        "count",
    );
    m.put(
        "optimizer.migrations_executed",
        c.optimizer.migrations_executed as f64,
        "count",
    );
    m.put(
        "optimizer.migrations_deferred",
        c.optimizer.migrations_deferred as f64,
        "count",
    );
    m.put(
        "optimizer.bytes_migrated",
        c.optimizer.bytes_migrated as f64,
        "bytes",
    );
    m.put("repair.drain_ms_total", total_ms("repair.provider"), "ms");
    m.put("repair.repaired", c.repaired as f64, "count");
    m.put("repair.dead_lettered", c.dead_lettered as f64, "count");
    m.put("repair.bytes_moved", c.repair_bytes as f64, "bytes");

    m.put("pool.workers", rayon::current_num_threads() as f64, "count");
    let (error_rate, sla_miss_rate) = rates(untraced);
    m.put("virt_latency_p50_us", virt_percentile(untraced, 50.0), "us");
    m.put("virt_latency_p99_us", virt_percentile(untraced, 99.0), "us");
    m.put("error_rate", error_rate, "ratio");
    m.put("sla_miss_rate", sla_miss_rate, "ratio");

    // Tracing overhead: traced vs untraced wall ops/s (probe time excluded
    // from the traced wall).
    let ops_u: u64 = untraced.iter().map(|r| r.counts.submitted).sum();
    let wall_u: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let ops_t: u64 = traced.iter().map(|r| r.counts.submitted).sum();
    let wall_t = replay_ns.saturating_sub(probe_ns) as f64 / 1e9;
    let untraced_rate = ratio(ops_u as f64, wall_u);
    m.put(
        "trace.overhead_ratio",
        1.0 - ratio(ratio(ops_t as f64, wall_t), untraced_rate),
        "ratio",
    );

    // Ledger: in-path self time per layer as a share of the traced wall
    // (probe time excluded), with the wall as its base.
    let wall_ns = replay_ns.saturating_sub(probe_ns) as f64;
    let layer_ns = |l: &str| *self_by_layer.get(l).unwrap_or(&0) as f64;
    m.put("ledger.wall_ms", wall_ns / 1e6, "ms");
    m.put(
        "ledger.frontend_share",
        ratio(layer_ns("frontend"), wall_ns),
        "ratio",
    );
    m.put(
        "ledger.engine_share",
        ratio(layer_ns("engine"), wall_ns),
        "ratio",
    );
    m.put(
        "ledger.tick_optimizer_share",
        ratio(layer_ns("tick_optimizer"), wall_ns),
        "ratio",
    );
    m.put(
        "ledger.repair_share",
        ratio(layer_ns("repair"), wall_ns),
        "ratio",
    );
    m.put(
        "ledger.replay_loop_share",
        ratio(layer_ns("replay_loop") - probe_ns as f64, wall_ns),
        "ratio",
    );
    // Puts: the hidden layers' probe time as a share of the in-path put
    // time of the same (probed) ops.
    let mut probed_put_ns = 0u64;
    let mut probe_by_name = std::collections::BTreeMap::<&str, u64>::new();
    for rep in traced {
        let tracer = rep.tracer.as_ref().expect("traced rep");
        for span in tracer.spans.iter().filter(|s| s.probe) {
            *probe_by_name.entry(span.name).or_insert(0) += span.dur_ns();
        }
        let probed: std::collections::BTreeSet<usize> = tracer
            .spans
            .iter()
            .filter(|s| s.probe && s.name == "md5.object")
            .filter_map(|s| s.parent)
            .collect();
        probed_put_ns += probed
            .iter()
            .map(|&id| tracer.spans[id].dur_ns())
            .sum::<u64>();
    }
    let probe = |n: &str| *probe_by_name.get(n).unwrap_or(&0) as f64;
    m.put("ledger.put.probed_ms", probed_put_ns as f64 / 1e6, "ms");
    m.put(
        "ledger.put.md5_share",
        ratio(probe("md5.object"), probed_put_ns as f64),
        "ratio",
    );
    m.put(
        "ledger.put.encode_share",
        ratio(probe("erasure.encode"), probed_put_ns as f64),
        "ratio",
    );
    m.put(
        "ledger.put.placement_share",
        ratio(probe("placement_cache.lookup"), probed_put_ns as f64),
        "ratio",
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(workload) = workloads::generate(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} ops={} objects={} latency_limit_us={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.ops.len(),
        workload.objects.len(),
        workload.latency_limit_us,
    );
    println!(
        "# available_parallelism={parallelism} pool_workers={} gf256_kernel={}",
        rayon::current_num_threads(),
        scalia::erasure::gf256::active_kernel().name(),
    );

    // Reps until the measuring time is used: untraced only with --trace 0
    // (at least two, for the determinism check), alternating untraced and
    // traced with --trace 1.
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Peak memory of the first rep (set-up, replay and check): later reps
    // would add allocator state left over from the clusters before them.
    let mut first_rep_rss_mib = 0.0;
    loop {
        let untraced_n = reps.iter().filter(|r| r.tracer.is_none()).count();
        let traced_n = reps.len() - untraced_n;
        let enough = if args.trace {
            untraced_n >= 1 && traced_n >= 1
        } else {
            untraced_n >= 2
        };
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len().max(1) as f64;
        if enough && (elapsed >= args.seconds || elapsed + per_rep > MAX_RUN_S) {
            break;
        }
        let traced = args.trace && untraced_n > traced_n;
        let rep = run::run_rep(&workload, traced);
        println!(
            "# rep {} traced={} setup_s={:.3} wall_s={:.3} ops={} cost_usd={:.6} digest={} problems={}",
            reps.len(),
            u8::from(traced),
            rep.setup_s,
            rep.wall_s,
            rep.counts.submitted,
            rep.cost_usd,
            rep.digest,
            rep.problems.len(),
        );
        if reps.is_empty() {
            first_rep_rss_mib = peak_rss_mib();
        }
        reps.push(rep);
    }

    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.tracer.is_none()).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.tracer.is_some()).collect();
    let mut problems: Vec<String> = reps
        .iter()
        .flat_map(|r| r.problems.iter().cloned())
        .collect();
    if workload.deterministic {
        for group in [&untraced, &traced] {
            if group.windows(2).any(|w| w[0].digest != w[1].digest) {
                problems.push("outcome digest differs between two replays of one seed".into());
            }
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.counts.submitted).sum();
    let failed: u64 = reps
        .iter()
        .map(|r| r.counts.failed + r.counts.refused)
        .sum();
    let (error_rate, sla_miss_rate) = rates(&untraced);
    let not_found_ok: u64 = untraced.iter().map(|r| r.counts.not_found_ok).sum();
    println!(
        "# error_rate={error_rate} sla_miss_rate={sla_miss_rate} correct_not_found={not_found_ok} reps={}",
        reps.len()
    );
    for p in problems.iter().take(20) {
        println!("# PROBLEM {p}");
    }
    if !problems.is_empty() {
        println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
        std::process::exit(1);
    }

    let metrics = if args.trace {
        per_layer(&untraced, &traced)
    } else {
        end_to_end(&untraced, first_rep_rss_mib)
    };
    let line = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    // Beside the benchmark's own sources, whatever the working directory.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(rep) = traced.last() {
        let path = out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = rep.tracer.as_ref().expect("traced rep").write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), &line))
    {
        eprintln!("perfbench: writing results: {e}");
    }
    println!("{line}");
}
