//! Datasets, the on-disk databases built from them, and the checks that
//! tie the benchmark's premises and answers to independent evidence: the
//! generated XML itself and the naive DOM oracle.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nok_core::naive::NaiveEvaluator;
use nok_core::{BackendKind, BuildOptions, XmlDb};
use nok_datagen::DatasetKind;
use nok_pager::FileStorage;
use nok_xml::{Document, Event, Reader};

use crate::stats::median;

/// Generation scale of every dataset (the paper's node counts × 0.1).
pub const SCALE: f64 = 0.1;

/// Times each database set is built and reopened; `setup_s` is the median
/// round.
pub const SETUP_ROUNDS: usize = 3;

/// Result type of the whole benchmark: a message that ends the run.
pub type Res<T> = Result<T, String>;

/// A generated document.
pub struct Dataset {
    /// Which paper dataset it mirrors.
    pub kind: DatasetKind,
    /// The XML text.
    pub xml: String,
}

impl Dataset {
    /// Generate at [`SCALE`] (deterministic: datagen uses fixed seeds).
    pub fn generate(kind: DatasetKind) -> Dataset {
        Dataset {
            kind,
            xml: nok_datagen::generate(kind, SCALE).xml,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }
}

/// Short backend label used in metric names.
pub fn backend_name(b: BackendKind) -> &'static str {
    match b {
        BackendKind::Classic => "classic",
        BackendKind::Succinct => "succinct",
    }
}

/// One opened on-disk database.
pub struct Db {
    /// Index into the run's dataset list.
    pub ds: usize,
    /// Structure backend.
    pub backend: BackendKind,
    /// Database directory.
    pub dir: PathBuf,
    /// The open handle.
    pub db: XmlDb<FileStorage>,
}

impl Db {
    /// `dataset.backend`.
    pub fn label(&self, datasets: &[Dataset]) -> String {
        format!(
            "{}.{}",
            datasets[self.ds].name(),
            backend_name(self.backend)
        )
    }
}

/// Set-up timings, each the median over [`SETUP_ROUNDS`] rounds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Build (create + flush) and reopen of every database, seconds.
    pub setup_s: f64,
    /// The build part alone.
    pub create_s: f64,
    /// The reopen part alone.
    pub open_s: f64,
}

/// Build every `(dataset, backend)` database [`SETUP_ROUNDS`] times under
/// `work` and reopen it with `struct_frames` structural frames; keep the
/// last round open and delete the others.
pub fn build_all(
    work: &Path,
    datasets: &[Dataset],
    specs: &[(usize, BackendKind)],
    struct_frames: usize,
) -> Res<(Vec<Db>, SetupTimes)> {
    let (mut totals, mut creates, mut opens) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = Vec::new();
    for round in 0..SETUP_ROUNDS {
        let (mut create, mut open) = (0.0, 0.0);
        let mut dbs = Vec::new();
        for &(ds, backend) in specs {
            let dir = work.join(format!(
                "r{round}-{}-{}",
                datasets[ds].name(),
                backend_name(backend)
            ));
            let (db, c, o) = build_one(&dir, &datasets[ds].xml, backend, struct_frames)?;
            create += c;
            open += o;
            dbs.push(Db {
                ds,
                backend,
                dir,
                db,
            });
        }
        totals.push(create + open);
        creates.push(create);
        opens.push(open);
        for old in std::mem::replace(&mut kept, dbs) {
            let dir = old.dir.clone();
            drop(old);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        }
    }
    Ok((
        kept,
        SetupTimes {
            setup_s: median(&totals),
            create_s: median(&creates),
            open_s: median(&opens),
        },
    ))
}

/// Build one database (create + flush), close it and reopen it. Returns
/// the handle and the two timings in seconds.
pub fn build_one(
    dir: &Path,
    xml: &str,
    backend: BackendKind,
    struct_frames: usize,
) -> Res<(XmlDb<FileStorage>, f64, f64)> {
    let t = Instant::now();
    let db = XmlDb::create_on_disk_with(dir, xml, BuildOptions::with_backend(backend))
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    db.flush()
        .map_err(|e| format!("flush {}: {e}", dir.display()))?;
    drop(db);
    let create = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let db = XmlDb::open_dir_with_capacity(dir, struct_frames)
        .map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok((db, create, t.elapsed().as_secs_f64()))
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copy a (quiescent) database directory.
pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One dblp record as the XML states it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Element name (`article`, `book`, ...).
    pub tag: String,
    /// The `key` attribute.
    pub key: String,
    /// Dewey id of the record's `title` child.
    pub title: String,
}

/// Read the dblp records straight from the XML (no database involved):
/// attributes take the leading Dewey child indexes, then elements follow.
pub fn dblp_records(xml: &str) -> Res<Vec<Record>> {
    let mut r = Reader::new(xml);
    let mut out: Vec<Record> = Vec::new();
    let mut depth = 0usize;
    // Next Dewey child index inside the current record.
    let mut child = 0usize;
    while let Some(ev) = r.next_event().map_err(|e| e.to_string())? {
        match ev {
            Event::Start { name, attrs } => {
                depth += 1;
                if depth == 2 {
                    let key = attrs
                        .iter()
                        .find(|a| a.name == "key")
                        .map(|a| a.value.clone())
                        .ok_or("dblp record without key")?;
                    out.push(Record {
                        tag: name,
                        key,
                        title: String::new(),
                    });
                    child = attrs.len();
                } else if depth == 3 {
                    if name == "title" {
                        let i = out.len() - 1;
                        out[i].title = format!("0.{i}.{child}");
                    }
                    child += 1;
                }
            }
            Event::End { .. } => depth -= 1,
            _ => {}
        }
    }
    if out.iter().any(|r| r.title.is_empty()) {
        return Err("dblp record without title".into());
    }
    Ok(out)
}

/// Element names of a document, in first-seen order, and the
/// `(parent, child)` name pairs it contains.
pub type TagPairs = (Vec<String>, HashSet<(String, String)>);

/// Read a document's [`TagPairs`] straight from the XML.
pub fn tag_pairs(xml: &str) -> Res<TagPairs> {
    let mut r = Reader::new(xml);
    let mut stack: Vec<String> = Vec::new();
    let mut tags: Vec<String> = Vec::new();
    let mut seen = HashSet::new();
    let mut pairs = HashSet::new();
    while let Some(ev) = r.next_event().map_err(|e| e.to_string())? {
        match ev {
            Event::Start { name, .. } => {
                if let Some(p) = stack.last() {
                    pairs.insert((p.clone(), name.clone()));
                }
                if seen.insert(name.clone()) {
                    tags.push(name.clone());
                }
                stack.push(name);
            }
            Event::End { .. } => {
                stack.pop();
            }
            _ => {}
        }
    }
    Ok((tags, pairs))
}

/// Seconds to pull every event of `xml` through the XML reader.
pub fn parse_seconds(xml: &str) -> Res<f64> {
    let t = Instant::now();
    let mut r = Reader::new(xml);
    let mut n = 0u64;
    while r.next_event().map_err(|e| e.to_string())?.is_some() {
        n += 1;
    }
    std::hint::black_box(n);
    Ok(t.elapsed().as_secs_f64())
}

/// Compare the engine's Dewey lists with the naive DOM oracle for each
/// `(path, deweys)` pair over one document. Returns how many were checked.
pub fn oracle_check(xml: &str, label: &str, answers: &[(String, Vec<String>)]) -> Res<usize> {
    let doc = Document::parse(xml).map_err(|e| format!("oracle parse: {e}"))?;
    let oracle = NaiveEvaluator::new(&doc);
    for (path, got) in answers {
        let want: Vec<String> = oracle
            .eval_str(path)
            .map_err(|e| format!("oracle {path}: {e}"))?
            .iter()
            .map(|n| oracle.dewey(n).to_string())
            .collect();
        if &want != got {
            return Err(format!(
                "WRONG ANSWER on {label}: {path} returned {} nodes, the oracle {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(answers.len())
}
