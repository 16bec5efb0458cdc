//! The two workloads. Each builds its databases, warms up, runs its timed
//! phase with tracing off, checks every answer, and reports the end-to-end
//! metrics; in the traced run it then measures every layer, the serve and
//! commit paths included.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nok_core::{BackendKind, XmlDb};
use nok_datagen::DatasetKind;
use nok_pager::FileStorage;
use nok_serve::SERVE_POOL_FRAMES;

use crate::corpus::{
    backend_name, build_all, build_one, dblp_records, dir_bytes, oracle_check, parse_seconds,
    rss_peak_mb, tag_pairs, Dataset, Db, Record, Res, SetupTimes,
};
use crate::gen::{key_path, lowsel_cycle, table3, zero_support, PointMix};
use crate::inproc::{answers, closed_loop, LoopOut, Query, POOLS};
use crate::layers;
use crate::metrics::{Metrics, LOWSEL_CELLS};
use crate::rng::{Rng, Zipf};
use crate::serve::{self, ServeCtx, ServeOut};
use crate::stats::{min_samples_for, Samples, Tally};
use crate::trace::SpanLog;

/// Structural frames of the `lowsel` databases: the largest structure
/// (dblp, classic) is 295 pages, so 512 frames hold every page.
pub const LOWSEL_FRAMES: usize = 512;

/// Samples every timed phase completes at least: enough for a p90 with
/// ten samples beyond it.
fn min_samples() -> usize {
    min_samples_for(0.9)
}

/// Key lookups checked against the oracle per run.
const KEY_SAMPLE: usize = 20;

/// Zero-support paths per dataset in a `point` run.
const EMPTY_PATHS: usize = 2;

/// Windows a timed phase is split into for its medians: `lowsel` has too
/// few samples to split.
const LOWSEL_WINDOWS: usize = 1;
const POINT_WINDOWS: usize = 10;

/// Writer-on seconds of a traced serve phase: at five commits a second,
/// enough commits for a p90.
const TRACED_MIXED_S: f64 = 21.0;

/// Commits in the commit-path probe.
const PROBE_COMMITS: u64 = 10;

/// Run settings shared by the workloads.
pub struct Run {
    /// Stream seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Scratch directory for this run's databases.
    pub work: PathBuf,
    /// Epoch of every span.
    pub epoch: Instant,
    /// Available parallelism.
    pub nproc: usize,
}

impl Run {
    /// Print how far into the run a step ended.
    pub fn mark(&self, step: &str) {
        println!("# t={:.1}s {step}", self.epoch.elapsed().as_secs_f64());
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (always measured).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
    /// Timed-phase queries attempted and failed.
    pub tally: Tally,
    /// Spans of the traced run.
    pub spans: Option<SpanLog>,
}

fn e2e_common(
    out: &mut Outcome,
    setup: &SetupTimes,
    samples: &Samples,
    start: Option<Instant>,
    windows: usize,
) -> Res<()> {
    let start = start.ok_or("timed phase never started")?;
    let s = samples.summary(start, windows)?;
    out.e2e.set("setup_s", setup.setup_s);
    out.e2e.set("qps", s.qps);
    out.e2e.set("query_p50_ms", s.p50);
    out.e2e.set("query_p90_ms", s.p90);
    out.e2e.set("rss_peak_mb", rss_peak_mb()?);
    println!(
        "# timed phase: {} over {:.2}s; median of {windows} window(s): {s:?}",
        samples.describe(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn disk_ratio(out: &mut Outcome, dirs: &[(&Path, usize)]) -> Res<()> {
    let mut disk = 0;
    let mut xml = 0;
    for (dir, xml_len) in dirs {
        disk += dir_bytes(dir)?;
        xml += xml_len;
    }
    out.e2e
        .set("disk_bytes_per_xml_byte", disk as f64 / xml as f64);
    Ok(())
}

/// Print the sizes the cache premises rest on.
fn print_sizes(run: &Run, datasets: &[Dataset], dbs: &[Db]) {
    for d in dbs {
        let db = &d.db;
        let mb = |p: &nok_pager::BufferPool<FileStorage>| {
            p.page_count() as f64 * p.page_size() as f64 / 1e6
        };
        println!(
            "# sizes: nproc={} db={} xml_mb={:.2} struct_pages={} struct_frames={} \
             tag_idx_mb={:.2} val_idx_mb={:.2} id_idx_mb={:.2} index_frames={}",
            run.nproc,
            d.label(datasets),
            datasets[d.ds].xml.len() as f64 / 1e6,
            db.store().page_count(),
            db.store().pool().capacity(),
            mb(db.bt_tag().pool()),
            mb(db.bt_val().pool()),
            mb(db.bt_id().pool()),
            db.bt_val().pool().capacity(),
        );
    }
}

/// Warm-up answers grouped per dataset and checked against the oracle.
fn check_with_oracle(
    datasets: &[Dataset],
    dbs: &[Db],
    answers: &[(usize, String, Vec<String>)],
) -> Res<usize> {
    let mut checked = 0;
    for (i, ds) in datasets.iter().enumerate() {
        for (di, d) in dbs.iter().enumerate() {
            if d.ds != i {
                continue;
            }
            let mine: Vec<(String, Vec<String>)> = answers
                .iter()
                .filter(|(db, _, _)| *db == di)
                .map(|(_, p, a)| (p.clone(), a.clone()))
                .collect();
            checked += oracle_check(&ds.xml, &d.label(datasets), &mine)?;
        }
    }
    Ok(checked)
}

/// `lowsel`: the low-selectivity Table 3 cells on both backends.
pub fn lowsel(run: &Run) -> Res<Outcome> {
    let datasets = vec![
        Dataset::generate(DatasetKind::Dblp),
        Dataset::generate(DatasetKind::Treebank),
    ];
    let specs = [
        (0, BackendKind::Classic),
        (0, BackendKind::Succinct),
        (1, BackendKind::Classic),
        (1, BackendKind::Succinct),
    ];
    let (dbs, setup) = build_all(&run.work, &datasets, &specs, LOWSEL_FRAMES)?;
    print_sizes(run, &datasets, &dbs);
    run.mark("set-up done");
    for d in &dbs {
        if d.db.store().page_count() as usize > LOWSEL_FRAMES {
            return Err(format!(
                "premise broken: {} has {} structure pages for {LOWSEL_FRAMES} frames",
                d.label(&datasets),
                d.db.store().page_count()
            ));
        }
    }
    let mut table = Vec::new();
    for (di, d) in dbs.iter().enumerate() {
        let ids: &[usize] = if datasets[d.ds].kind == DatasetKind::Dblp {
            &[9, 10, 11, 12]
        } else {
            &[10, 12]
        };
        for (_, path, _) in table3(datasets[d.ds].kind, ids) {
            table.push(Query {
                db: di,
                path,
                expect: None,
            });
        }
    }
    let all: Vec<usize> = (0..table.len()).collect();
    let warm = answers(&dbs, &mut table, &all)?;
    let n = table.len();
    let seed = run.seed;
    let mut off = SpanLog::new(run.epoch, 0, false);
    let timed = closed_loop(
        &dbs,
        &table,
        &mut |b| lowsel_cycle(seed, b, n),
        run.seconds,
        min_samples(),
        &mut off,
    )?;
    run.mark("timed phase done");
    let mut out = Outcome::default();
    e2e_common(
        &mut out,
        &setup,
        &timed.samples,
        timed.start,
        LOWSEL_WINDOWS,
    )?;
    out.tally = timed.tally;
    if timed.pools[0][1] != 0 {
        return Err(format!(
            "premise broken: the lowsel structure no longer fits its pool: {} physical \
             structure reads after warm-up",
            timed.pools[0][1]
        ));
    }
    let dirs: Vec<(&Path, usize)> = dbs
        .iter()
        .map(|d| (d.dir.as_path(), datasets[d.ds].xml.len()))
        .collect();
    disk_ratio(&mut out, &dirs)?;
    let checked = check_with_oracle(&datasets, &dbs, &warm)?;
    run.mark("oracle check done");
    println!("# oracle: {checked} answers match on both backends");
    if run.traced {
        let mut log = SpanLog::new(run.epoch, 1, true);
        let traced = closed_loop(
            &dbs,
            &table,
            &mut |b| lowsel_cycle(seed, b, n),
            run.seconds,
            min_samples(),
            &mut log,
        )?;
        set_overhead(
            &mut out,
            timed.samples.len() as f64 / timed.elapsed,
            traced.samples.len() as f64 / traced.elapsed,
        );
        set_pools(&mut out, &traced.pools, traced.samples.len());
        inproc_layers(&mut out, &traced, &dbs)?;
        corpus_layers(&mut out, &datasets, &dbs)?;
        common_layers(&mut out, &datasets, &setup)?;
        let dblp_dir = dbs[0].dir.clone();
        drop(dbs);
        let served = serve_probe(&mut out, run, &datasets[0], &dblp_dir, &mut log)?;
        out.layers.set(
            "error_frac",
            timed.tally.plus(traced.tally).plus(served).error_frac(),
        );
        out.spans = Some(log);
    }
    Ok(out)
}

/// `point`: selective cells, skewed key lookups and zero-support paths
/// over all five datasets.
pub fn point(run: &Run) -> Res<Outcome> {
    let datasets: Vec<Dataset> = DatasetKind::ALL
        .iter()
        .map(|&k| Dataset::generate(k))
        .collect();
    let specs: Vec<(usize, BackendKind)> = (0..datasets.len())
        .map(|i| (i, BackendKind::Classic))
        .collect();
    let (dbs, setup) = build_all(&run.work, &datasets, &specs, SERVE_POOL_FRAMES)?;
    print_sizes(run, &datasets, &dbs);
    run.mark("set-up done");
    let dblp = datasets
        .iter()
        .position(|d| d.kind == DatasetKind::Dblp)
        .ok_or("no dblp")?;
    let records = dblp_records(&datasets[dblp].xml)?;
    let mut table = Vec::new();
    let mut cells = Vec::new();
    for (i, ds) in datasets.iter().enumerate() {
        for (_, path, _) in table3(ds.kind, &[1, 2, 3, 4, 5, 6, 7, 8]) {
            cells.push(table.len());
            table.push(Query {
                db: i,
                path,
                expect: None,
            });
        }
    }
    let mut rng = Rng::new(run.seed, 5);
    let mut empties = Vec::new();
    for (ds, d) in datasets.iter().enumerate() {
        let (tags, set) = tag_pairs(&d.xml)?;
        for path in zero_support(run.seed, 10 + ds as u64, &tags, &set, EMPTY_PATHS) {
            empties.push(table.len());
            table.push(Query {
                db: ds,
                path,
                expect: Some(0),
            });
        }
    }
    let keys = table.len();
    for r in &records {
        table.push(Query {
            db: dblp,
            path: key_path(&r.tag, &r.key),
            expect: Some(1),
        });
    }
    let sample: Vec<usize> = (0..KEY_SAMPLE).map(|_| rng.below(records.len())).collect();
    let mut warm_ids: Vec<usize> = cells.iter().chain(&empties).copied().collect();
    warm_ids.extend(sample.iter().map(|i| keys + i));
    let warm = answers(&dbs, &mut table, &warm_ids)?;
    check_keys(&warm, &table, keys, &records)?;
    let classes = [
        ("cells", cells.clone()),
        ("empties", empties.clone()),
        ("keys", (keys..table.len()).collect::<Vec<_>>()),
    ];
    let mix = PointMix {
        cells,
        empties,
        keys,
    };
    let zipf = Zipf::new(records.len(), 1.0);
    let seed = run.seed;
    let mut off = SpanLog::new(run.epoch, 0, false);
    let timed = closed_loop(
        &dbs,
        &table,
        &mut |b| mix.block(seed, b, &zipf),
        run.seconds,
        min_samples(),
        &mut off,
    )?;
    run.mark("timed phase done");
    let mut out = Outcome::default();
    e2e_common(&mut out, &setup, &timed.samples, timed.start, POINT_WINDOWS)?;
    print_shares(&datasets, &table, &classes, &timed.query_ns);
    out.tally = timed.tally;
    let dirs: Vec<(&Path, usize)> = dbs
        .iter()
        .map(|d| (d.dir.as_path(), datasets[d.ds].xml.len()))
        .collect();
    disk_ratio(&mut out, &dirs)?;
    let checked = check_with_oracle(&datasets, &dbs, &warm)?;
    run.mark("oracle check done");
    println!("# oracle: {checked} answers match");
    if run.traced {
        let mut log = SpanLog::new(run.epoch, 1, true);
        let traced = closed_loop(
            &dbs,
            &table,
            &mut |b| mix.block(seed, b, &zipf),
            run.seconds,
            min_samples(),
            &mut log,
        )?;
        set_overhead(
            &mut out,
            timed.samples.len() as f64 / timed.elapsed,
            traced.samples.len() as f64 / traced.elapsed,
        );
        set_pools(&mut out, &traced.pools, traced.samples.len());
        inproc_layers(&mut out, &traced, &dbs)?;
        let tb = datasets
            .iter()
            .position(|d| d.kind == DatasetKind::Treebank)
            .ok_or("no treebank")?;
        let probe = probe_corpus(&run.work, &datasets, &[dblp, tb])?;
        corpus_layers(&mut out, &datasets, &probe)?;
        drop(probe);
        common_layers(&mut out, &datasets, &setup)?;
        let dblp_dir = dbs[dblp].dir.clone();
        drop(dbs);
        let served = serve_probe(&mut out, run, &datasets[dblp], &dblp_dir, &mut log)?;
        out.layers.set(
            "error_frac",
            timed.tally.plus(traced.tally).plus(served).error_frac(),
        );
        out.spans = Some(log);
    }
    Ok(out)
}

/// Print each query class's share of the timed phase's client time, and
/// the queries that took the most of it.
fn print_shares(
    datasets: &[Dataset],
    table: &[Query],
    classes: &[(&str, Vec<usize>)],
    query_ns: &[u64],
) {
    let total = query_ns.iter().sum::<u64>().max(1) as f64;
    let share = |ids: &[usize]| ids.iter().map(|&i| query_ns[i]).sum::<u64>() as f64 / total;
    let line: Vec<String> = classes
        .iter()
        .map(|(name, ids)| format!("{name}={:.3}", share(ids)))
        .collect();
    println!(
        "# timed phase: share of client time by class: {}",
        line.join(" ")
    );
    let mut top: Vec<usize> = (0..table.len()).collect();
    top.sort_by_key(|&i| std::cmp::Reverse(query_ns[i]));
    let line: Vec<String> = top
        .iter()
        .take(6)
        .map(|&i| {
            format!(
                "{}:{}={:.3}",
                datasets[table[i].db].name(),
                table[i].path,
                query_ns[i] as f64 / total
            )
        })
        .collect();
    println!("# timed phase: largest shares: {}", line.join(" "));
}

/// The sampled key lookups answer with the title Dewey the XML states.
fn check_keys(
    warm: &[(usize, String, Vec<String>)],
    table: &[Query],
    keys: usize,
    records: &[Record],
) -> Res<()> {
    for (_, path, got) in warm {
        if let Some(i) = table[keys..].iter().position(|q| &q.path == path) {
            if got != std::slice::from_ref(&records[i].title) {
                return Err(format!(
                    "WRONG ANSWER: {path} returned {got:?}, the XML says {}",
                    records[i].title
                ));
            }
        }
    }
    Ok(())
}

/// Expected answers for the serve reader: dblp records from the XML and
/// the Q1–Q8 cells as the engine answers them before the phase, checked
/// against the oracle.
fn serve_ctx(ds: &Dataset, db: &XmlDb<FileStorage>, workers: usize) -> Res<ServeCtx> {
    let records = dblp_records(&ds.xml)?;
    let mut cells = Vec::new();
    for (_, path, _) in table3(DatasetKind::Dblp, &[1, 2, 3, 4, 5, 6, 7, 8]) {
        let got: Vec<String> = db
            .query(&path)
            .map_err(|e| format!("{path}: {e}"))?
            .iter()
            .map(|m| m.dewey.to_string())
            .collect();
        cells.push((path, got));
    }
    oracle_check(&ds.xml, "dblp.serve", &cells)?;
    Ok(ServeCtx {
        records,
        cells,
        workers,
    })
}

fn set_overhead(out: &mut Outcome, untraced_qps: f64, traced_qps: f64) {
    out.layers
        .set("trace.overhead_frac", 1.0 - traced_qps / untraced_qps);
}

/// Pool hit ratios and per-operation reads and evictions.
fn set_pools(out: &mut Outcome, pools: &crate::inproc::PoolCounts, ops: usize) {
    let ops = ops.max(1) as f64;
    for (p, c) in POOLS.iter().zip(pools) {
        let hit = if c[0] == 0 {
            1.0
        } else {
            1.0 - c[1] as f64 / c[0] as f64
        };
        out.layers.set(format!("pool.{p}.hit_ratio"), hit);
        out.layers.set(
            format!("pool.{p}.physical_reads_per_query"),
            c[1] as f64 / ops,
        );
        out.layers
            .set(format!("pool.{p}.evictions_per_query"), c[2] as f64 / ops);
    }
    out.layers.set(
        "pool.struct.logical_gets_per_query",
        pools[0][0] as f64 / ops,
    );
}

/// Stage times and executor counts of a traced in-process phase, plus the
/// value and index probes on its result nodes.
fn inproc_layers(out: &mut Outcome, traced: &LoopOut, dbs: &[Db]) -> Res<()> {
    let c = &traced.exec;
    let q = c.queries.max(1) as f64;
    out.layers.set("parse.us", c.parse_ns as f64 / q / 1e3);
    out.layers.set(
        "plan.us",
        c.plan_ns.saturating_sub(c.parse_ns) as f64 / q / 1e3,
    );
    out.layers.set("exec.ms", c.exec_ns as f64 / q / 1e6);
    out.layers.set(
        "exec.entries_per_result",
        c.entries as f64 / c.results.max(1) as f64,
    );
    out.layers
        .set("exec.dir_probes_per_query", c.dir_probes as f64 / q);
    out.layers.set(
        "exec.starting_points_per_query",
        c.starting_points as f64 / q,
    );
    out.layers.set(
        "exec.scan_seed_frac",
        c.scan_fragments as f64 / c.fragments.max(1) as f64,
    );
    out.layers
        .set("exec.proven_empty_frac", c.proven_empty as f64 / q);
    let staged = (c.parse_ns + c.plan_ns + c.exec_ns).max(1) as f64;
    println!(
        "# traced phase: share of staged query time: parse={:.3} plan={:.3} execute={:.3}",
        c.parse_ns as f64 / staged,
        c.plan_ns as f64 / staged,
        c.exec_ns as f64 / staged
    );
    let handles: Vec<&XmlDb<FileStorage>> = dbs.iter().map(|d| &d.db).collect();
    let (read_us, values) = layers::values_probe(&handles, &traced.picks)?;
    out.layers.set("values.read_us", read_us);
    let (val_us, id_us) = layers::btree_probe(&handles, &traced.picks, &values)?;
    out.layers.set("btree.val_lookup_us", val_us);
    out.layers.set("btree.id_lookup_us", id_us);
    Ok(())
}

/// Set-up layers: XML parse rate and the build/open split of `setup_s`.
fn common_layers(out: &mut Outcome, datasets: &[Dataset], setup: &SetupTimes) -> Res<()> {
    let mut secs = 0.0;
    let mut mb = 0.0;
    for d in datasets {
        secs += parse_seconds(&d.xml)?;
        mb += d.xml.len() as f64 / 1e6;
    }
    out.layers.set("xml.parse_mb_s", mb / secs);
    out.layers.set("build.create_s", setup.create_s);
    out.layers.set("build.open_s", setup.open_s);
    Ok(())
}

/// dblp and treebank on both backends with `lowsel`'s pools, for the
/// navigation, decode and cell probes of workloads that lack them.
fn probe_corpus(work: &Path, datasets: &[Dataset], which: &[usize]) -> Res<Vec<Db>> {
    let mut out = Vec::new();
    for &ds in which {
        for backend in [BackendKind::Classic, BackendKind::Succinct] {
            let dir = work.join(format!(
                "probe-{}-{}",
                datasets[ds].name(),
                backend_name(backend)
            ));
            let (db, _, _) = build_one(&dir, &datasets[ds].xml, backend, LOWSEL_FRAMES)?;
            out.push(Db {
                ds,
                backend,
                dir,
                db,
            });
        }
    }
    Ok(out)
}

/// Navigation, decode, per-cell and reference-engine layers over dblp and
/// treebank on both backends.
fn corpus_layers(out: &mut Outcome, datasets: &[Dataset], corpus: &[Db]) -> Res<()> {
    for backend in [BackendKind::Classic, BackendKind::Succinct] {
        let b = backend_name(backend);
        let mut nav = [(0u64, 0u64); 4];
        let (mut pages, mut us) = (0u64, 0.0);
        for d in corpus.iter().filter(|d| d.backend == backend) {
            layers::nav_probe(d.db.store(), &mut nav)?;
            let (p, u) = layers::decode_probe(d.db.store())?;
            pages += p;
            us += u;
        }
        for (p, (calls, ns)) in layers::NAV_PRIMS.iter().zip(nav) {
            out.layers
                .set(format!("nav.{p}_ns.{b}"), ns as f64 / calls.max(1) as f64);
        }
        out.layers.set(
            format!("decode.cold_us_per_page.{b}"),
            us / pages.max(1) as f64,
        );
    }
    for (i, ds) in datasets.iter().enumerate() {
        let mine: Vec<(usize, String)> = LOWSEL_CELLS
            .iter()
            .filter(|(n, _)| *n == ds.name())
            .map(|&(_, q)| (q, table3(ds.kind, &[q])[0].1.clone()))
            .collect();
        if mine.is_empty() {
            continue;
        }
        let mut answers = Vec::new();
        for (q, path) in &mine {
            let mut classic: Option<Vec<String>> = None;
            for d in corpus.iter().filter(|d| d.ds == i) {
                let (ms, got) = layers::nok_cell(&d.db, path)?;
                out.layers.set(
                    format!("cell.{}.Q{q}.ms.{}", ds.name(), backend_name(d.backend)),
                    ms,
                );
                match &classic {
                    None => classic = Some(got),
                    Some(c) if *c != got => {
                        return Err(format!("WRONG ANSWER: backends disagree on {path}"));
                    }
                    Some(_) => {}
                }
            }
            answers.push((path.clone(), classic.ok_or("no corpus database")?));
        }
        for ((q, _), (di, ts)) in mine.iter().zip(layers::reference_cells(&ds.xml, &answers)?) {
            out.layers.set(format!("ref.di.{}.Q{q}.ms", ds.name()), di);
            out.layers
                .set(format!("ref.twigstack.{}.Q{q}.ms", ds.name()), ts);
        }
    }
    Ok(())
}

/// The traced serve phase: a reader-only phase, then reader and writer.
fn serve_layers(
    out: &mut Outcome,
    run: &Run,
    ctx: &ServeCtx,
    db: &mut XmlDb<FileStorage>,
    log: &mut SpanLog,
) -> Res<ServeOut> {
    let s = serve::run(
        db,
        ctx,
        run.seed,
        TRACED_MIXED_S.max(run.seconds),
        min_samples(),
        run.epoch,
        log,
    )?;
    if s.pools[2][1] == 0 || s.pools[3][1] == 0 {
        return Err(format!(
            "premise broken: uniform key reads no longer miss the 256-frame val/id pools: \
             {} val and {} id physical reads",
            s.pools[2][1], s.pools[3][1]
        ));
    }
    let l = &mut out.layers;
    let commits = s.commit_tally.attempted.max(1) as f64;
    l.set("serve.server_p50_us", s.server_p50_us);
    l.set("serve.server_p99_us", s.server_p99_us);
    l.set(
        "serve.plan_hit_ratio",
        s.plan[0] as f64 / (s.plan[0] + s.plan[1]).max(1) as f64,
    );
    l.set("serve.plan_stale_per_commit", s.plan[2] as f64 / commits);
    l.set("serve.read_only_qps", s.read_only_qps);
    l.set(
        "serve.mixed_qps_ratio",
        s.reads.len() as f64 / s.elapsed / s.read_only_qps,
    );
    for (i, proto) in ["binary", "json"].iter().enumerate() {
        l.set(
            format!("wire.{proto}.query_p50_ms"),
            s.by_proto[i].pct(0.5, "wire latency")?,
        );
    }
    for (proto, (enc, dec, bytes)) in ["binary", "json"]
        .iter()
        .zip(layers::wire_probe(&s.responses)?)
    {
        l.set(format!("wire.{proto}.encode_us"), enc);
        l.set(format!("wire.{proto}.decode_us"), dec);
        l.set(format!("wire.{proto}.bytes_per_response"), bytes);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    l.set("commit.insert_ms", mean(&s.insert_ms));
    l.set("commit.delete_ms", mean(&s.delete_ms));
    l.set("commit_p50_ms", s.commits.pct(0.5, "commit latency")?);
    l.set("commit_p90_ms", s.commits.pct(0.9, "commit latency")?);
    l.set("writer.late_ms", mean(&s.late_ms));
    l.set(
        "mvcc.retired_generations_per_commit",
        s.retired as f64 / commits,
    );
    l.set("mvcc.live_generations_max", s.live_max as f64);
    l.set("mvcc.pinned_readers_max", s.pinned_max as f64);
    println!(
        "# traced serve phase: reads {} commits {}",
        s.reads.describe(),
        s.commits.describe()
    );
    Ok(s)
}

/// The commit-path probes on copies of `dir`.
fn commit_layers(out: &mut Outcome, run: &Run, dir: &Path, records: usize) -> Res<()> {
    let (nd, ios, wal) = layers::commit_probe(dir, &run.work, run.seed, records, PROBE_COMMITS)?;
    out.layers.set("commit.nondurable_ms", nd);
    out.layers.set("commit.mutating_io_per_commit", ios);
    out.layers.set("commit.wal_bytes_per_commit", wal);
    Ok(())
}

/// For `lowsel` and `point`: the serve, wire, commit and MVCC layers from
/// a traced serve phase over the workload's own dblp directory.
/// Returns the phase's reads and commits.
fn serve_probe(
    out: &mut Outcome,
    run: &Run,
    ds: &Dataset,
    dir: &Path,
    log: &mut SpanLog,
) -> Res<Tally> {
    let mut db =
        XmlDb::open_dir_with_capacity(dir, SERVE_POOL_FRAMES).map_err(|e| e.to_string())?;
    let ctx = serve_ctx(ds, &db, run.nproc)?;
    let s = serve_layers(out, run, &ctx, &mut db, log)?;
    drop(db);
    commit_layers(out, run, dir, ctx.records.len())?;
    Ok(s.read_tally.plus(s.commit_tally))
}
