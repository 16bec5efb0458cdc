//! The serve phase of every traced run: a `QueryService` behind
//! `serve_connection` on loopback, one closed-loop reader alternating a
//! binary and a JSON connection (75% uniform `@key` lookups, 25% dblp
//! Q1–Q8), and one open-loop durable writer committing beside it. It is
//! not an end-to-end workload: on a two-vCPU host its throughput swung by
//! 2x between runs with the host's load, far past any usable bound.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nok_core::{Dewey, XmlDb};
use nok_pager::FileStorage;
use nok_serve::binproto::{
    decode_response, encode_request, read_bin_frame, BinResponse, MAGIC, VERSION,
};
use nok_serve::conn::serve_connection;
use nok_serve::proto::{parse_query_response, read_frame, write_frame, Request, WireMatch};
use nok_serve::{Json, QueryService, ServiceConfig};

use crate::corpus::{Record, Res};
use crate::gen::{serve_block, writer_target, ServeReq};
use crate::inproc::{pool_counts, pool_delta, PoolCounts};
use crate::stats::{OpenLoop, Samples, Tally};
use crate::trace::SpanLog;

/// Durable commits per second the writer is scheduled at.
pub const WRITE_RATE: f64 = 5.0;

/// What the reader checks answers against: computed before the phase, and
/// unchanged by the writer's `<benchnote>` edits.
pub struct ServeCtx {
    /// dblp records read from the XML.
    pub records: Vec<Record>,
    /// `(cell path, expected Dewey list)` for dblp Q1–Q8 in both forms.
    pub cells: Vec<(String, Vec<String>)>,
    /// Worker threads of the service.
    pub workers: usize,
}

/// Reader-only seconds before the writer starts, for
/// `serve.read_only_qps`.
const READ_ONLY_S: f64 = 4.0;

/// Everything one serve phase measured.
#[derive(Default)]
pub struct ServeOut {
    /// Client latency of each completed read (mixed phase).
    pub reads: Samples,
    /// The same split by protocol: binary, JSON.
    pub by_proto: [Samples; 2],
    /// Reads attempted / failed (mixed phase).
    pub read_tally: Tally,
    /// Mixed-phase wall time, seconds.
    pub elapsed: f64,
    /// Reads per second of the reader-only phase.
    pub read_only_qps: f64,
    /// Commit latency charged from each commit's due time.
    pub commits: Samples,
    /// Commits attempted / failed.
    pub commit_tally: Tally,
    /// Insert and delete call durations, ms.
    pub insert_ms: Vec<f64>,
    /// See `insert_ms`.
    pub delete_ms: Vec<f64>,
    /// How late each commit started against its schedule, ms.
    pub late_ms: Vec<f64>,
    /// Responses kept for the wire encode/decode probe.
    pub responses: Vec<Vec<WireMatch>>,
    /// Highest live-generation and pinned-reader gauges seen.
    pub live_max: u64,
    /// See `live_max`.
    pub pinned_max: u64,
    /// Generations retired during the mixed phase.
    pub retired: u64,
    /// Plan-cache hits, misses and stale drops during the mixed phase.
    pub plan: [u64; 3],
    /// Server-side latency quantiles at the end, µs.
    pub server_p50_us: f64,
    /// See `server_p50_us`.
    pub server_p99_us: f64,
    /// Pool counter deltas over the mixed phase.
    pub pools: PoolCounts,
}

/// Responses kept for the wire probe.
const MAX_RESPONSES: usize = 400;

/// One client holding a binary and a JSON connection.
struct Client {
    bin_w: BufWriter<TcpStream>,
    bin_r: BufReader<TcpStream>,
    json_w: BufWriter<TcpStream>,
    json_r: BufReader<TcpStream>,
    next_id: u64,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Res<Client> {
        let open = || -> Res<(BufWriter<TcpStream>, BufReader<TcpStream>)> {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
            Ok((BufWriter::new(s), r))
        };
        let (mut bin_w, bin_r) = open()?;
        bin_w.write_all(&MAGIC).map_err(|e| e.to_string())?;
        bin_w.write_all(&[VERSION]).map_err(|e| e.to_string())?;
        let (json_w, json_r) = open()?;
        Ok(Client {
            bin_w,
            bin_r,
            json_w,
            json_r,
            next_id: 0,
            buf: Vec::new(),
        })
    }

    /// One request as `request` → `encode` / `roundtrip` / `decode`.
    /// `Ok(Err(_))` is a request the server answered with an error.
    fn query(
        &mut self,
        path: &str,
        binary: bool,
        log: &mut SpanLog,
    ) -> Res<Result<Vec<WireMatch>, String>> {
        self.next_id += 1;
        let req = Request::Query {
            id: self.next_id,
            path: path.to_string(),
            timeout_ms: None,
        };
        log.open("request");
        let out = if binary {
            self.buf.clear();
            log.span("encode", |_| encode_request(&mut self.buf, &req));
            let frame = log.span("roundtrip", |_| -> Res<_> {
                self.bin_w.write_all(&self.buf).map_err(|e| e.to_string())?;
                self.bin_w.flush().map_err(|e| e.to_string())?;
                read_bin_frame(&mut self.bin_r)
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "server closed the binary connection".to_string())
            })?;
            log.span("decode", |_| {
                match decode_response(frame.0, frame.1, &frame.2) {
                    Ok(BinResponse::QueryOk { matches, .. }) => Ok(Ok(matches)),
                    Ok(BinResponse::Error { message, .. }) => Ok(Err(message)),
                    Ok(other) => Err(format!("unexpected response {other:?}")),
                    Err(e) => Err(format!("bad binary frame: {e}")),
                }
            })
        } else {
            let text = log.span("encode", |_| req.to_json().to_string_compact());
            let payload = log.span("roundtrip", |_| -> Res<_> {
                write_frame(&mut self.json_w, &text).map_err(|e| e.to_string())?;
                read_frame(&mut self.json_r)
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "server closed the JSON connection".to_string())
            })?;
            log.span("decode", |_| {
                let v = Json::parse(&payload).map_err(|e| format!("bad JSON response: {e}"))?;
                Ok(parse_query_response(&v))
            })
        };
        log.close();
        out
    }
}

/// Run the reader alone for [`READ_ONLY_S`], then reader and writer for
/// `mixed_s` and at least `min_reads` reads, against a fresh service over
/// `db`. The writer owns `db`; the service reads through its snapshot
/// source.
pub fn run(
    db: &mut XmlDb<FileStorage>,
    ctx: &ServeCtx,
    seed: u64,
    mixed_s: f64,
    min_reads: usize,
    epoch: Instant,
    log: &mut SpanLog,
) -> Res<ServeOut> {
    let svc = QueryService::start_from_source(
        db.snapshot_source(),
        ServiceConfig {
            workers: ctx.workers,
            queue_cap: 128,
            default_timeout: Duration::from_secs(10),
            ..ServiceConfig::default()
        },
    );
    let svc = Arc::new(svc);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let mixed_started = AtomicBool::new(false);
    let reader_done = AtomicBool::new(false);
    // The writer's half of the measurements; the reader returns the rest.
    let mut w = ServeOut::default();
    std::thread::scope(|s| -> Res<ServeOut> {
        let acceptor = s.spawn(|| {
            for stream in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let (svc, stop) = (&svc, &stop);
                s.spawn(move || {
                    let _ = serve_connection(&stream, svc, stop, addr);
                });
            }
        });
        let reader = s.spawn(|| {
            let mut rlog = SpanLog::new(epoch, 2, true);
            let mut r = ServeOut::default();
            let res = read_loop(
                addr,
                ctx,
                seed,
                (mixed_s, min_reads),
                &svc,
                &mut r,
                &mut rlog,
                &mixed_started,
            );
            reader_done.store(true, Ordering::Release);
            res.map(|()| (r, rlog))
        });
        let wres = write_loop(db, ctx, seed, &mixed_started, &reader_done, log, &mut w);
        let rres = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(addr);
        acceptor
            .join()
            .map_err(|_| "acceptor thread panicked".to_string())?;
        wres?;
        let (mut r, rlog) = rres??;
        log.absorb(rlog);
        r.commits = std::mem::take(&mut w.commits);
        r.commit_tally = w.commit_tally;
        r.insert_ms = std::mem::take(&mut w.insert_ms);
        r.delete_ms = std::mem::take(&mut w.delete_ms);
        r.late_ms = std::mem::take(&mut w.late_ms);
        Ok(r)
    })
}

fn plan_counters(svc: &QueryService<FileStorage>) -> [u64; 3] {
    let m = svc.metrics();
    [
        m.plan_hits.load(Ordering::Relaxed),
        m.plan_misses.load(Ordering::Relaxed),
        m.plan_stale.load(Ordering::Relaxed),
    ]
}

fn snapshot_pools(svc: &QueryService<FileStorage>) -> Res<PoolCounts> {
    let snap = svc.snapshot().map_err(|e| e.to_string())?;
    Ok(pool_counts([snap.db()]))
}

/// The reader: warm-up, the reader-only phase, then the mixed phase of
/// `(seconds, fewest reads)`. Every answer is compared with the expected
/// Dewey list.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    addr: SocketAddr,
    ctx: &ServeCtx,
    seed: u64,
    (mixed_s, min_reads): (f64, usize),
    svc: &QueryService<FileStorage>,
    out: &mut ServeOut,
    log: &mut SpanLog,
    mixed_started: &AtomicBool,
) -> Res<()> {
    let mut client = Client::connect(addr)?;
    let mut quiet = SpanLog::new(Instant::now(), 0, false);
    let mut sink = ServeOut::default();
    // Warm-up: every cell on both protocols, plus two blocks of keys.
    for c in 0..ctx.cells.len() {
        for binary in [true, false] {
            one(
                &mut client,
                ctx,
                ServeReq::Cell(c),
                binary,
                &mut quiet,
                &mut sink,
            )?;
        }
    }
    let mut n = 0u64;
    let mut block = 0u64;
    let mut phase = |secs: f64, min: usize, out: &mut ServeOut, log: &mut SpanLog| -> Res<f64> {
        let t0 = Instant::now();
        let mut done = 0usize;
        while t0.elapsed().as_secs_f64() < secs || done < min {
            for req in serve_block(seed, block, ctx.cells.len(), ctx.records.len()) {
                one(&mut client, ctx, req, n.is_multiple_of(2), log, out)?;
                n += 1;
                done += 1;
                let g = svc.generation_stats();
                out.live_max = out.live_max.max(g.live_generations());
                out.pinned_max = out.pinned_max.max(g.pinned_readers());
            }
            out.reads.end_block();
            block += 1;
        }
        Ok(t0.elapsed().as_secs_f64())
    };
    phase(
        0.0,
        2 * crate::gen::SERVE_KEYS_PER_BLOCK,
        &mut sink,
        &mut quiet,
    )?;
    let mut ro = ServeOut::default();
    let secs = phase(READ_ONLY_S, 0, &mut ro, &mut quiet)?;
    out.read_only_qps = ro.reads.len() as f64 / secs;
    let pools0 = snapshot_pools(svc)?;
    let plan0 = plan_counters(svc);
    let retired0 = svc.generation_stats().retired_generations();
    mixed_started.store(true, Ordering::Release);
    out.elapsed = phase(mixed_s, min_reads, out, log)?;
    out.pools = pool_delta(&pools0, &snapshot_pools(svc)?);
    let plan1 = plan_counters(svc);
    for i in 0..3 {
        out.plan[i] = plan1[i] - plan0[i];
    }
    out.retired = svc.generation_stats().retired_generations() - retired0;
    out.server_p50_us = svc.metrics().latency.quantile_micros(0.5) as f64;
    out.server_p99_us = svc.metrics().latency.quantile_micros(0.99) as f64;
    Ok(())
}

/// Send one request, time it from the client, and check the answer.
fn one(
    client: &mut Client,
    ctx: &ServeCtx,
    req: ServeReq,
    binary: bool,
    log: &mut SpanLog,
    out: &mut ServeOut,
) -> Res<()> {
    let (path, expect): (String, &[String]) = match req {
        ServeReq::Cell(c) => (ctx.cells[c].0.clone(), &ctx.cells[c].1),
        ServeReq::Key(i) => {
            let r = &ctx.records[i];
            (
                crate::gen::key_path(&r.tag, &r.key),
                std::slice::from_ref(&r.title),
            )
        }
    };
    let t0 = Instant::now();
    let res = client.query(&path, binary, log)?;
    let lat = t0.elapsed();
    out.read_tally.record(res.is_ok());
    match res {
        Err(e) => eprintln!("serve phase: {path} failed: {e}"),
        Ok(matches) => {
            if matches.len() != expect.len()
                || matches.iter().zip(expect).any(|(m, e)| &m.dewey != e)
            {
                return Err(format!(
                    "WRONG ANSWER over {}: {path} returned {} nodes, expected {}",
                    if binary { "binary" } else { "JSON" },
                    matches.len(),
                    expect.len()
                ));
            }
            out.reads.push(lat);
            out.by_proto[usize::from(!binary)].push(lat);
            if out.responses.len() < MAX_RESPONSES {
                out.responses.push(matches);
            }
        }
    }
    Ok(())
}

/// The open-loop writer: once the mixed phase starts, commit at
/// [`WRITE_RATE`] until the reader is done, alternating an insert of
/// `<benchnote>` under a seeded record and its deletion, so the document
/// ends as it began. Spans: `commit` → `insert` / `delete`.
fn write_loop(
    db: &mut XmlDb<FileStorage>,
    ctx: &ServeCtx,
    seed: u64,
    mixed_started: &AtomicBool,
    reader_done: &AtomicBool,
    log: &mut SpanLog,
    out: &mut ServeOut,
) -> Res<()> {
    while !mixed_started.load(Ordering::Acquire) {
        if reader_done.load(Ordering::Acquire) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let ol = OpenLoop::new(Instant::now(), WRITE_RATE);
    let mut pending: Option<Dewey> = None;
    let mut k = 0u64;
    loop {
        let due = ol.due(k);
        loop {
            if reader_done.load(Ordering::Acquire) {
                return finish_writer(db, pending);
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(5)));
        }
        let started = Instant::now();
        out.late_ms
            .push(ol.lateness(k, started).as_secs_f64() * 1e3);
        log.open("commit");
        let res = match pending.take() {
            None => {
                let rec = writer_target(seed, k / 2, ctx.records.len());
                let parent = Dewey::from_components(vec![0, rec as u32]);
                let t = Instant::now();
                let r = log.span("insert", |_| {
                    db.insert_last_child(&parent, &format!("<benchnote>{k}</benchnote>"))
                });
                out.insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.map(|d| pending = Some(d))
            }
            Some(d) => {
                let t = Instant::now();
                let r = log.span("delete", |_| db.delete_subtree(&d));
                out.delete_ms.push(t.elapsed().as_secs_f64() * 1e3);
                r.map(|_| ())
            }
        };
        log.close();
        out.commit_tally.record(res.is_ok());
        match res {
            Ok(()) => out.commits.push(ol.latency(k, Instant::now())),
            Err(e) => eprintln!("serve phase: commit {k} failed: {e}"),
        }
        k += 1;
    }
}

/// Remove a `<benchnote>` left by an insert whose delete never ran.
fn finish_writer(db: &mut XmlDb<FileStorage>, pending: Option<Dewey>) -> Res<()> {
    if let Some(d) = pending {
        db.delete_subtree(&d)
            .map_err(|e| format!("restore after the writer: {e}"))?;
    }
    Ok(())
}
