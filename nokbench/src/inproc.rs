//! The closed-loop in-process client shared by `lowsel` and `point`: one
//! thread calls `XmlDb::query_into` with a reused `QueryScratch`, checks
//! every answer's size, and (when traced) splits each query into
//! `query` → `parse` / `plan` / `execute` / `collect` spans.

use std::time::{Duration, Instant};

use nok_core::pattern::PathExpr;
use nok_core::pattern_tree::PatternTree;
use nok_core::{QueryMatch, QueryOptions, QueryScratch, StrategyUsed};

use crate::corpus::{Db, Res};
use crate::stats::{Samples, Tally};
use crate::trace::SpanLog;

/// One query of a workload's table.
#[derive(Debug, Clone)]
pub struct Query {
    /// Index of the database it runs on.
    pub db: usize,
    /// The path expression.
    pub path: String,
    /// Expected answer size, known before the timed phase.
    pub expect: Option<usize>,
}

/// Per-pool `(logical gets, physical reads, evictions)`, in the order
/// struct, tag, val, id, summed over a set of databases.
pub type PoolCounts = [[u64; 3]; 4];

/// Pool names in [`PoolCounts`] order.
pub const POOLS: [&str; 4] = ["struct", "tag", "val", "id"];

/// Current pool counters of `dbs`.
pub fn pool_counts<'a>(
    dbs: impl IntoIterator<Item = &'a nok_core::XmlDb<nok_pager::FileStorage>>,
) -> PoolCounts {
    let mut out = [[0u64; 3]; 4];
    for db in dbs {
        let pools = [
            db.store().pool().stats(),
            db.bt_tag().pool().stats(),
            db.bt_val().pool().stats(),
            db.bt_id().pool().stats(),
        ];
        for (o, s) in out.iter_mut().zip(pools) {
            o[0] += s.logical_gets();
            o[1] += s.physical_reads();
            o[2] += s.evictions();
        }
    }
    out
}

/// `after - before`, per pool and counter.
pub fn pool_delta(before: &PoolCounts, after: &PoolCounts) -> PoolCounts {
    let mut d = [[0u64; 3]; 4];
    for p in 0..4 {
        for c in 0..3 {
            d[p][c] = after[p][c].saturating_sub(before[p][c]);
        }
    }
    d
}

/// Executor counters and stage times summed over the traced queries.
#[derive(Debug, Default, Clone)]
pub struct ExecCounters {
    /// Queries traced.
    pub queries: u64,
    /// Results returned.
    pub results: u64,
    /// String entries examined by navigation.
    pub entries: u64,
    /// Directory probes.
    pub dir_probes: u64,
    /// Starting points tried.
    pub starting_points: u64,
    /// Fragments evaluated (not skipped).
    pub fragments: u64,
    /// Of those, fragments seeded by a scan.
    pub scan_fragments: u64,
    /// Queries the synopsis proved empty.
    pub proven_empty: u64,
    /// Span totals, ns.
    pub parse_ns: u64,
    /// `plan_query`, parse included.
    pub plan_ns: u64,
    /// `execute_plan`.
    pub exec_ns: u64,
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Client latency per completed query.
    pub samples: Samples,
    /// Attempted and failed queries.
    pub tally: Tally,
    /// Wall time of the phase, seconds.
    pub elapsed: f64,
    /// When the phase began.
    pub start: Option<Instant>,
    /// Executor counters (traced phases only).
    pub exec: ExecCounters,
    /// Pool counter deltas over the phase.
    pub pools: PoolCounts,
    /// A sample of result nodes for the value and index probes.
    pub picks: Vec<(usize, QueryMatch)>,
    /// Client time per table entry over the phase, ns.
    pub query_ns: Vec<u64>,
}

/// Result nodes kept for the value and index probes.
const MAX_PICKS: usize = 2_000;

/// Run blocks from `next_block` until at least `seconds` have passed and
/// `min_samples` queries completed; a block is never cut short, so every
/// run measures the same mix.
pub fn closed_loop(
    dbs: &[Db],
    table: &[Query],
    next_block: &mut dyn FnMut(u64) -> Vec<usize>,
    seconds: f64,
    min_samples: usize,
    log: &mut SpanLog,
) -> Res<LoopOut> {
    let mut out = LoopOut::default();
    let mut scratch = QueryScratch::new();
    let mut matches = Vec::new();
    let before = pool_counts(dbs.iter().map(|d| &d.db));
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut b = 0u64;
    out.query_ns = vec![0; table.len()];
    while start.elapsed() < deadline || out.samples.len() < min_samples {
        for qi in next_block(b) {
            let q = &table[qi];
            let t0 = Instant::now();
            let ok = if log.enabled() {
                run_traced(
                    &dbs[q.db],
                    q,
                    &mut scratch,
                    &mut matches,
                    log,
                    &mut out.exec,
                )
            } else {
                dbs[q.db]
                    .db
                    .query_into(&q.path, QueryOptions::default(), &mut scratch, &mut matches)
                    .map_err(|e| e.to_string())
            };
            let lat = t0.elapsed();
            out.tally.record(ok.is_ok());
            if let Err(e) = ok {
                eprintln!("query failed: {}: {e}", q.path);
                continue;
            }
            if let Some(n) = q.expect {
                if matches.len() != n {
                    return Err(format!(
                        "WRONG ANSWER: {} returned {} nodes, expected {n}",
                        q.path,
                        matches.len()
                    ));
                }
            }
            out.samples.push(lat);
            out.query_ns[qi] += lat.as_nanos() as u64;
            if log.enabled() && out.picks.len() < MAX_PICKS {
                out.picks
                    .extend(matches.iter().take(2).map(|m| (q.db, m.clone())));
            }
        }
        out.samples.end_block();
        b += 1;
    }
    out.start = Some(start);
    out.elapsed = start.elapsed().as_secs_f64();
    out.pools = pool_delta(&before, &pool_counts(dbs.iter().map(|d| &d.db)));
    Ok(out)
}

/// One query split into spans at the module boundaries: `parse`
/// (`PathExpr::parse` + `PatternTree::from_path`), `plan` (`plan_query`,
/// which parses again), `execute` (`execute_plan`) and `collect`.
fn run_traced(
    db: &Db,
    q: &Query,
    scratch: &mut QueryScratch,
    matches: &mut Vec<QueryMatch>,
    log: &mut SpanLog,
    c: &mut ExecCounters,
) -> Result<(), String> {
    log.open("query");
    let res = (|| {
        let t = Instant::now();
        log.span("parse", |_| {
            PathExpr::parse(&q.path).and_then(|e| PatternTree::from_path(&e))
        })
        .map_err(|e| e.to_string())?;
        c.parse_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let planned = log
            .span("plan", |_| {
                db.db.plan_query(&q.path, QueryOptions::default())
            })
            .map_err(|e| e.to_string())?;
        c.plan_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        log.span("execute", |_| {
            db.db.execute_plan(&planned, scratch, matches)
        })
        .map_err(|e| e.to_string())?;
        c.exec_ns += t.elapsed().as_nanos() as u64;
        log.span("collect", |_| {
            let st = scratch.stats();
            c.queries += 1;
            c.results += matches.len() as u64;
            c.entries += st.entries_examined;
            c.dir_probes += st.dir_entries_examined;
            c.starting_points += st.starting_points.iter().sum::<u64>();
            for s in &st.strategies {
                if *s != StrategyUsed::Skipped {
                    c.fragments += 1;
                    if matches!(s, StrategyUsed::Scan | StrategyUsed::DocScan) {
                        c.scan_fragments += 1;
                    }
                }
            }
            c.proven_empty += u64::from(st.proven_empty);
        });
        Ok(())
    })();
    log.close();
    res
}

/// Run every query once and return each one's Dewey list (the warm-up
/// pass that also fixes the expected answer sizes).
pub fn answers(
    dbs: &[Db],
    table: &mut [Query],
    which: &[usize],
) -> Res<Vec<(usize, String, Vec<String>)>> {
    let mut scratch = QueryScratch::new();
    let mut matches = Vec::new();
    let mut out = Vec::new();
    for &qi in which {
        let q = &mut table[qi];
        dbs[q.db]
            .db
            .query_into(&q.path, QueryOptions::default(), &mut scratch, &mut matches)
            .map_err(|e| format!("warm-up {}: {e}", q.path))?;
        let deweys: Vec<String> = matches.iter().map(|m| m.dewey.to_string()).collect();
        if let Some(n) = q.expect {
            if n != deweys.len() {
                return Err(format!(
                    "WRONG ANSWER: {} returned {} nodes, expected {n}",
                    q.path,
                    deweys.len()
                ));
            }
        }
        q.expect = Some(deweys.len());
        out.push((q.db, q.path.clone(), deweys));
    }
    Ok(out)
}
