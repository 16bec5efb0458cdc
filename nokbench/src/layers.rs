//! Probes of single modules, run only in the traced run: timed calls to
//! each module's public functions on the run's own databases and answers.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nok_baselines::di::DiEngine;
use nok_baselines::twigstack::TwigStackEngine;
use nok_baselines::Engine;
use nok_core::values::hash_key;
use nok_core::{
    cursor, Dewey, NodeAddr, QueryMatch, QueryOptions, QueryScratch, StructStore, XmlDb,
};
use nok_pager::{FailPlan, FailpointStorage, FileStorage, Storage};
use nok_serve::binproto::{decode_response, encode_response, split_frame, BinResponse};
use nok_serve::proto::{parse_query_response, query_ok, WireMatch};
use nok_serve::Json;

use crate::corpus::{copy_dir, Res};
use crate::gen::writer_target;
use crate::stats::median;

/// Total calls and nanoseconds per navigation primitive, in the order
/// first_child, following_sibling, subtree_close, interval.
pub type NavTotals = [(u64, u64); 4];

/// Primitive names in [`NavTotals`] order.
pub const NAV_PRIMS: [&str; 4] = [
    "first_child",
    "following_sibling",
    "subtree_close",
    "interval",
];

/// Walk the whole document in preorder with `first_child` /
/// `following_sibling`, then time each public `cursor` primitive over
/// every node of the walk.
pub fn nav_probe<S: Storage>(store: &StructStore<S>, acc: &mut NavTotals) -> Res<()> {
    let err = |e: nok_core::CoreError| e.to_string();
    let mut nodes: Vec<NodeAddr> = Vec::new();
    let mut parents: Vec<NodeAddr> = Vec::new();
    let mut cur = store.root().ok_or("empty store")?;
    'walk: loop {
        nodes.push(cur);
        if let Some(c) = cursor::first_child(store, cur).map_err(err)? {
            parents.push(cur);
            cur = c;
            continue;
        }
        loop {
            if let Some(s) = cursor::following_sibling(store, cur).map_err(err)? {
                cur = s;
                break;
            }
            match parents.pop() {
                Some(p) => cur = p,
                None => break 'walk,
            }
        }
    }
    let n = nodes.len() as u64;
    let t = Instant::now();
    for &a in &nodes {
        black_box(cursor::first_child(store, a).map_err(err)?);
    }
    add(&mut acc[0], n, t);
    let t = Instant::now();
    for &a in &nodes {
        black_box(cursor::following_sibling(store, a).map_err(err)?);
    }
    add(&mut acc[1], n, t);
    let t = Instant::now();
    for &a in &nodes {
        black_box(cursor::subtree_close(store, a).map_err(err)?);
    }
    add(&mut acc[2], n, t);
    let t = Instant::now();
    for &a in &nodes {
        black_box(cursor::interval(store, a).map_err(err)?);
    }
    add(&mut acc[3], n, t);
    Ok(())
}

fn add(slot: &mut (u64, u64), calls: u64, since: Instant) {
    slot.0 += calls;
    slot.1 += since.elapsed().as_nanos() as u64;
}

/// Re-decode every structural page after dropping the decode cache, with
/// the pool already warm. Returns `(pages decoded, microseconds)`.
pub fn decode_probe<S: Storage>(store: &StructStore<S>) -> Res<(u64, f64)> {
    let pages: Vec<_> = (0..store.chain_len())
        .filter_map(|r| store.dir_at(r).map(|d| d.id))
        .collect();
    for &p in &pages {
        store.decoded(p).map_err(|e| e.to_string())?;
    }
    let mut us = 0.0;
    const REPS: usize = 3;
    for _ in 0..REPS {
        store.invalidate_decoded(None);
        let t = Instant::now();
        for &p in &pages {
            black_box(store.decoded(p).map_err(|e| e.to_string())?);
        }
        us += t.elapsed().as_secs_f64() * 1e6;
    }
    Ok(((pages.len() * REPS) as u64, us))
}

/// Median of `reps` timed runs of `f`, in ms (after one untimed run).
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    f()?;
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f()?);
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&v))
}

/// NoK time of one cell on one database, ms, and its Dewey list.
pub fn nok_cell(db: &XmlDb<FileStorage>, path: &str) -> Res<(f64, Vec<String>)> {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let ms = time_ms(3, || {
        db.query_into(path, QueryOptions::default(), &mut scratch, &mut out)
            .map_err(|e| e.to_string())
    })?;
    Ok((ms, out.iter().map(|m| m.dewey.to_string()).collect()))
}

/// DI and TwigStack times of each path over `xml`, ms, checked against
/// the NoK answers given.
pub fn reference_cells(xml: &str, cells: &[(String, Vec<String>)]) -> Res<Vec<(f64, f64)>> {
    let di = DiEngine::new(xml).map_err(|e| e.to_string())?;
    let ts = TwigStackEngine::new(xml).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (path, want) in cells {
        let mut row = [0.0; 2];
        for (slot, engine) in row.iter_mut().zip([&di as &dyn Engine, &ts]) {
            let got: Vec<String> = engine
                .eval(path)
                .map_err(|e| format!("{} {path}: {e}", engine.name()))?
                .iter()
                .map(Dewey::to_string)
                .collect();
            if &got != want {
                return Err(format!(
                    "WRONG ANSWER: {} disagrees with NoK on {path}",
                    engine.name()
                ));
            }
            *slot = time_ms(3, || engine.eval(path).map_err(|e| e.to_string()))?;
        }
        out.push((row[0], row[1]));
    }
    Ok(out)
}

/// Mean µs of `XmlDb::value_of` over the picked result nodes; returns the
/// values found too.
pub fn values_probe(
    dbs: &[&XmlDb<FileStorage>],
    picks: &[(usize, QueryMatch)],
) -> Res<(f64, Vec<(usize, String)>)> {
    let mut values = Vec::new();
    let t = Instant::now();
    for (db, m) in picks {
        if let Some(v) = dbs[*db].value_of(m).map_err(|e| e.to_string())? {
            values.push((*db, v));
        }
    }
    Ok((
        t.elapsed().as_secs_f64() * 1e6 / picks.len().max(1) as f64,
        values,
    ))
}

/// Mean µs of `get_all` on B+i (the picked nodes' Dewey keys) and on B+v
/// (the hashes of the values read). Every lookup must find its key.
pub fn btree_probe(
    dbs: &[&XmlDb<FileStorage>],
    picks: &[(usize, QueryMatch)],
    values: &[(usize, String)],
) -> Res<(f64, f64)> {
    let keys: Vec<(usize, Vec<u8>)> = picks.iter().map(|(d, m)| (*d, m.dewey.to_key())).collect();
    let t = Instant::now();
    for (d, k) in &keys {
        if dbs[*d]
            .bt_id()
            .get_all(k)
            .map_err(|e| e.to_string())?
            .is_empty()
        {
            return Err("B+i lookup missed a result node".into());
        }
    }
    let id_us = t.elapsed().as_secs_f64() * 1e6 / keys.len().max(1) as f64;
    let vkeys: Vec<(usize, [u8; 8])> = values.iter().map(|(d, v)| (*d, hash_key(v))).collect();
    let t = Instant::now();
    for (d, k) in &vkeys {
        if dbs[*d]
            .bt_val()
            .get_all(k)
            .map_err(|e| e.to_string())?
            .is_empty()
        {
            return Err("B+v lookup missed a stored value".into());
        }
    }
    let val_us = t.elapsed().as_secs_f64() * 1e6 / vkeys.len().max(1) as f64;
    Ok((val_us, id_us))
}

/// Per protocol (binary, JSON): mean encode µs, mean decode µs and mean
/// bytes of a query response, over responses the run received.
pub fn wire_probe(responses: &[Vec<WireMatch>]) -> Res<[(f64, f64, f64); 2]> {
    const REPS: usize = 5;
    let n = (responses.len() * REPS).max(1) as f64;
    let (mut enc, mut dec, mut bytes) = ([0.0f64; 2], [0.0f64; 2], [0usize; 2]);
    let mut buf = Vec::new();
    for (id, m) in responses.iter().enumerate() {
        let resp = BinResponse::QueryOk {
            id: id as u64,
            matches: m.clone(),
        };
        for _ in 0..REPS {
            buf.clear();
            let t = Instant::now();
            encode_response(&mut buf, &resp);
            enc[0] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let (op, rid, payload, _) = split_frame(&buf)
                .map_err(|e| e.to_string())?
                .ok_or("short binary frame")?;
            let back = decode_response(op, rid, payload).map_err(|e| e.to_string())?;
            dec[0] += t.elapsed().as_secs_f64();
            if back != resp {
                return Err("binary response did not round-trip".into());
            }
            bytes[0] += buf.len();
            let t = Instant::now();
            let text = query_ok(id as u64, m).to_string_compact();
            enc[1] += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let parsed = Json::parse(&text).and_then(|v| parse_query_response(&v))?;
            dec[1] += t.elapsed().as_secs_f64();
            if &parsed != m {
                return Err("JSON response did not round-trip".into());
            }
            bytes[1] += text.len();
        }
    }
    Ok([0, 1].map(|p| (enc[p] * 1e6 / n, dec[p] * 1e6 / n, bytes[p] as f64 / n)))
}

/// Pause between two looks at the WAL's length: far shorter than the
/// page writes and fsyncs a commit makes between its log append and its
/// checkpoint, so no log record is missed, without spinning a core.
const WAL_POLL: Duration = Duration::from_micros(20);

/// Commit-path probes on copies of a quiescent dblp directory, with the
/// writer's op stream: ms per commit with the WAL disabled, mutating I/Os
/// per durable commit, and WAL bytes per durable commit (the log's peak
/// size during the commit over its size after the previous checkpoint).
pub fn commit_probe(
    src: &Path,
    work: &Path,
    seed: u64,
    records: usize,
    ops: u64,
) -> Res<(f64, f64, f64)> {
    let nd_dir = work.join("commit-nondurable");
    copy_dir(src, &nd_dir)?;
    let mut db = XmlDb::open_dir_with_capacity(&nd_dir, nok_serve::SERVE_POOL_FRAMES)
        .map_err(|e| e.to_string())?;
    db.disable_wal();
    let t = Instant::now();
    writer_ops(&mut db, seed, records, ops, &mut || ())?;
    let nondurable_ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;
    drop(db);

    let fp_dir = work.join("commit-failpoint");
    copy_dir(src, &fp_dir)?;
    let plan = FailPlan::counting();
    let wrap = Arc::clone(&plan);
    let mut db = XmlDb::<FailpointStorage<FileStorage>>::open_dir_with(
        &fp_dir,
        nok_serve::SERVE_POOL_FRAMES,
        move |s| FailpointStorage::new(s, Arc::clone(&wrap)),
    )
    .map_err(|e| e.to_string())?;
    db.set_failpoint(Arc::clone(&plan));
    let wal = fp_dir.join("wal.log");
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let peak = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut growth: Vec<u64> = Vec::new();
    let io0 = plan.count();
    std::thread::scope(|s| -> Res<()> {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                peak.fetch_max(len(&wal), Ordering::AcqRel);
                std::thread::sleep(WAL_POLL);
            }
        });
        let mut base: Option<u64> = None;
        let res = writer_ops(&mut db, seed, records, ops, &mut || {
            if let Some(b) = base {
                growth.push(peak.load(Ordering::Acquire).saturating_sub(b));
            }
            let now = len(&wal);
            base = Some(now);
            peak.store(now, Ordering::Release);
        });
        stop.store(true, Ordering::Release);
        res
    })?;
    let ios = (plan.count() - io0) as f64 / ops as f64;
    let missed = growth.iter().filter(|&&g| g == 0).count();
    if missed > 0 {
        return Err(format!(
            "commit probe: the WAL poller missed {missed} of {} commits' log records",
            growth.len()
        ));
    }
    let wal_bytes = growth.iter().sum::<u64>() as f64 / growth.len().max(1) as f64;
    Ok((nondurable_ms, ios, wal_bytes))
}

/// The writer's op stream without a schedule: insert `<benchnote>` under a
/// seeded record, delete it again, `ops` commits in all. `between` runs
/// before every op and once at the end.
fn writer_ops<S: Storage>(
    db: &mut XmlDb<S>,
    seed: u64,
    records: usize,
    ops: u64,
    between: &mut dyn FnMut(),
) -> Res<()> {
    let mut pending = None;
    for k in 0..ops {
        between();
        pending = match pending.take() {
            None => {
                let rec = writer_target(seed, k / 2, records);
                let parent = Dewey::from_components(vec![0, rec as u32]);
                Some(
                    db.insert_last_child(&parent, &format!("<benchnote>{k}</benchnote>"))
                        .map_err(|e| format!("probe insert: {e}"))?,
                )
            }
            Some(d) => {
                db.delete_subtree(&d)
                    .map_err(|e| format!("probe delete: {e}"))?;
                None
            }
        };
    }
    between();
    if let Some(d) = pending {
        db.delete_subtree(&d)
            .map_err(|e| format!("probe delete: {e}"))?;
    }
    Ok(())
}
